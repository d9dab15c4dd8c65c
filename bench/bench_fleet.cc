/**
 * @file
 * Fleet bench: the routing-policy x fleet-size sweep, judged by
 * SLO attainment and goodput — which policy keeps a fleet of
 * identical instances inside its latency budget, and how that
 * changes as the fleet grows under a fixed per-instance offered
 * load.
 *
 * Every cell is one FleetDriver run (fleet/fleet.hh): N gpu
 * instances behind the policy, one shared open-loop stream at
 * qps-per-instance x N. Cells are independent, so the sweep runs
 * on the SweepRunner worker pool via runTasks() — the generic
 * primitive under the figure benches' runSweep().
 *
 * A second sweep measures the fleet step itself: host time per
 * request as the fleet grows from 64 to 1024 instances with the
 * load proportional to size (dense Llama3 gpu instances at 2 qps
 * each, least-loaded routing). The sizes run one at a time on the
 * calling thread, best of three, so each number is the driver's own
 * cost; fleet.scaling_1024_over_64 is the ratio the perf gate caps.
 *
 * Output discipline (same as bench_longrun): everything
 * deterministic (the policy table) goes to stdout — the CI
 * determinism job can diff two runs byte-for-byte. Wall-clock and
 * RSS go to stderr and, with --json=PATH, into a perf report
 * (bench_util.hh PerfReport) the CI perf gate reads
 * (fleet.requests_per_sec floor, fleet.scaling_1024_over_64
 * ceiling; see tools/check_perf.py).
 *
 *   ./bench_fleet                       # both sweeps
 *   ./bench_fleet --requests=32         # smaller policy sweep
 *   ./bench_fleet --json=BENCH_fleet.json
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/argparse.hh"
#include "fleet/fleet.hh"

using namespace duplex;

namespace
{

constexpr int kFleetSizes[] = {2, 4};
constexpr double kQpsPerInstance = 4.0;

constexpr int kScaleSizes[] = {64, 128, 256, 512, 1024};
constexpr double kScaleQpsPerInstance = 2.0;
constexpr int kScaleRequests = 8192; //!< per size
constexpr int kScaleReps = 3;

/** One sweep cell: a policy on a fleet size, with its outcome. */
struct FleetCell
{
    std::string policy;
    int size = 0;

    FleetResult result;
    double attainment = 0.0;
    double goodput = 0.0;
};

FleetConfig
cellConfig(const FleetCell &cell, int requests_per_instance)
{
    FleetConfig fc;
    fc.sim.systemName = "gpu";
    fc.sim.model = mixtralConfig();
    fc.sim.maxBatch = 16;
    fc.sim.workload.meanInputLen = 256;
    fc.sim.workload.meanOutputLen = 64;
    fc.sim.workload.qps = kQpsPerInstance * cell.size;
    // Sessions give session-affinity something to pin; the other
    // policies ignore the tag, so every cell streams the same
    // requests.
    fc.sim.workload.numSessions = 4 * cell.size;
    fc.sim.numRequests = requests_per_instance * cell.size;
    fc.sim.warmupRequests =
        defaultWarmupRequests(fc.sim.maxBatch) / cell.size;
    // The requests/s number only means something if every request
    // retires; the cap is a runaway backstop, not the run's end.
    fc.sim.maxStages = 2000000;
    fc.instances = cell.size;
    fc.policy = cell.policy;
    return fc;
}

/** A size-sweep fleet: @p size dense gpu instances under load
 *  proportional to size, every request retired. Each size serves
 *  the same number of requests, so each run is long enough to time
 *  (the smaller fleets simply run longer in simulated time). */
FleetConfig
scaleConfig(int size)
{
    FleetConfig fc;
    fc.sim.systemName = "gpu";
    fc.sim.model = llama3Config();
    fc.sim.maxBatch = 16;
    fc.sim.workload.meanInputLen = 256;
    fc.sim.workload.meanOutputLen = 64;
    fc.sim.workload.qps = kScaleQpsPerInstance * size;
    fc.sim.numRequests = kScaleRequests;
    fc.sim.maxStages = 2000000;
    fc.instances = size;
    fc.policy = "least-loaded";
    return fc;
}

/**
 * Host microseconds per retired request at each of kScaleSizes, best
 * of kScaleReps, into @p report; stderr gets one line per size.
 */
void
sizeSweep(PerfReport &report)
{
    std::vector<double> us_per_request;
    for (int size : kScaleSizes) {
        double best = 0.0;
        for (int rep = 0; rep < kScaleReps; ++rep) {
            std::int64_t retired = 0;
            const double sec = timed([&] {
                retired = FleetDriver(scaleConfig(size))
                              .run()
                              .requestsRetired;
            });
            const double us =
                sec * 1e6 / static_cast<double>(std::max<std::int64_t>(
                                1, retired));
            best = rep == 0 ? us : std::min(best, us);
        }
        std::fprintf(stderr,
                     "fleet size sweep: %4d instances, %.1f us of "
                     "host time per request\n",
                     size, best);
        report.add("fleet.us_per_request." + std::to_string(size),
                   best);
        us_per_request.push_back(best);
    }
    const double scaling = us_per_request.back() / us_per_request.front();
    std::fprintf(stderr,
                 "fleet size sweep: %d over %d instances = %.2fx\n",
                 kScaleSizes[std::size(kScaleSizes) - 1],
                 kScaleSizes[0], scaling);
    report.add("fleet.scaling_1024_over_64", scaling);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addFlag("requests", "requests per instance", "192");
    args.addFlag("tbt-slo", "TBT SLO in ms", "40");
    args.addFlag("ttft-slo", "TTFT SLO in ms", "1500");
    args.addFlag("json",
                 "write fleet perf metrics to this file", "");
    args.parse(argc, argv);

    const int requests_per_instance =
        static_cast<int>(args.getInt("requests"));
    const SloSpec slo{args.getDouble("ttft-slo"),
                      args.getDouble("tbt-slo")};

    banner("Fleet routing policies: SLO attainment x fleet size");
    std::printf("gpu instances, Lin 256, Lout 64, open loop at "
                "%.0f qps/instance, %d request(s)/instance, "
                "TTFT < %.0f ms, TBT < %.0f ms\n",
                kQpsPerInstance, requests_per_instance, slo.t2ftMs,
                slo.tbtMs);

    // The full policy x size cross, every cell an independent
    // FleetDriver run on the worker pool.
    std::vector<FleetCell> cells;
    for (const std::string &policy : registeredRoutingPolicies())
        for (int size : kFleetSizes)
            cells.push_back({policy, size, {}, 0.0, 0.0});

    std::vector<std::function<void()>> tasks;
    tasks.reserve(cells.size());
    for (FleetCell &cell : cells)
        tasks.push_back([&cell, requests_per_instance, slo] {
            FleetDriver driver(
                cellConfig(cell, requests_per_instance));
            FleetSloAttainment attainment(slo);
            driver.addObserver(&attainment);
            cell.result = driver.run();
            cell.attainment = attainment.attainment().attainment();
            cell.goodput =
                attainment.attainment().goodputTokensPerSec();
        });

    const double wall_sec =
        timed([&] { SweepRunner().runTasks(tasks); });

    // ---- deterministic sweep table (stdout, diffed by CI) ------
    Table t({"Policy", "Fleet", "tokens/s", "TBT p50 ms",
             "TBT p99 ms", "SLO att", "goodput/s", "retired"});
    std::int64_t total_retired = 0;
    for (const FleetCell &cell : cells) {
        total_retired += cell.result.requestsRetired;
        t.startRow();
        t.cell(cell.policy);
        t.cell(static_cast<double>(cell.size), 0);
        t.cell(cell.result.metrics.throughputTokensPerSec(), 0);
        t.cell(cell.result.metrics.tbtMs.percentile(50), 2);
        t.cell(cell.result.metrics.tbtMs.percentile(99), 2);
        t.cell(cell.attainment, 3);
        t.cell(cell.goodput, 0);
        t.cell(static_cast<double>(cell.result.requestsRetired), 0);
    }
    t.print();
    std::printf("Attainment covers every retired request; "
                "tokens/s and TBT are post-warm-up.\n");

    PerfReport scaling;
    sizeSweep(scaling);

    return reportSweep("fleet", cells.size(), total_retired, wall_sec,
                       args.getString("json"), scaling);
}
