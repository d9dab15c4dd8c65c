/**
 * @file
 * Scenario matrix: every registered serving system crossed with
 * every registered workload, driven through runSweep. This is the
 * ROADMAP's "as many scenarios as you can imagine" harness: adding
 * a system (sim/registry.hh) or a workload (workload/registry.hh)
 * grows the matrix automatically, with no bench edits.
 *
 * The "trace" workload is exercised as a round-trip: the bench
 * first materializes a synthetic open-loop stream, dumps it with
 * saveTrace, then replays the file through TraceSource like a
 * recorded production trace.
 *
 * Reported per cell: throughput, TBT p99, the TTFT/TBT SLO
 * attainment fractions, and — via the SweepRunner's per-run
 * observer factory — the per-request SLO attainment and goodput
 * the SloAttainment observer computes (a request counts only if
 * its TTFT and its *worst* token gap meet the objective). Under
 * bursty/diurnal arrivals these columns separate systems the raw
 * tokens/s column cannot.
 *
 * Output discipline (same as bench_fleet): the matrix table goes
 * to stdout for the CI determinism diff; wall-clock and RSS go to
 * stderr and, with --json=PATH, into a perf report (no floor gates
 * it).
 *
 *   ./bench_scenarios                   # the full matrix
 *   ./bench_scenarios --requests=24     # quick smoke run
 *   ./bench_scenarios --json=BENCH_scenarios.json
 */

#include "bench_util.hh"
#include "common/argparse.hh"
#include "workload/registry.hh"
#include "workload/trace.hh"

using namespace duplex;

namespace
{

constexpr int kBatch = 16;
constexpr std::int64_t kMaxStages = 6000;
constexpr double kOpenLoopQps = 6.0;
const char *const kTracePath = "bench_scenarios_trace.csv";

/** The spec every cell shares; sources read what they need. */
WorkloadSpec
scenarioSpec()
{
    WorkloadSpec spec;
    spec.meanInputLen = 512;
    spec.meanOutputLen = 128;
    spec.qps = kOpenLoopQps;
    spec.burstQps = 12.0;
    spec.idleQps = 1.0;
    spec.meanBurstSec = 2.0;
    spec.meanIdleSec = 4.0;
    spec.diurnalLowQps = 1.0;
    spec.diurnalHighQps = 12.0;
    spec.diurnalPeriodSec = 20.0;
    spec.tracePath = kTracePath;
    return spec;
}

/** Write the trace the "trace" workload replays. */
void
writeScenarioTrace(const WorkloadSpec &spec, int requests_per_cell)
{
    WorkloadSpec synthetic = spec;
    const std::unique_ptr<WorkloadSource> source =
        makeWorkload("synthetic", synthetic);
    std::vector<Request> requests;
    requests.reserve(requests_per_cell);
    for (int i = 0; i < requests_per_cell; ++i)
        requests.push_back(source->next());
    saveTrace(kTracePath, requests);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addFlag("requests", "requests per cell", "48");
    args.addFlag("json",
                 "write scenario-bench perf metrics to this file",
                 "");
    args.parse(argc, argv);
    const int requests = static_cast<int>(args.getInt("requests"));

    banner("Scenario matrix: registered systems x registered "
           "workloads");

    const WorkloadSpec spec = scenarioSpec();
    writeScenarioTrace(spec, requests);

    const std::vector<std::string> systems = registeredSystems();
    const std::vector<std::string> workloads =
        registeredWorkloads();

    std::vector<SimConfig> configs;
    configs.reserve(systems.size() * workloads.size());
    for (const std::string &workload : workloads) {
        for (const std::string &system : systems) {
            SimConfig c;
            c.systemName = system;
            c.workloadName = workload;
            c.model = mixtralConfig();
            c.workload = spec;
            c.maxBatch = kBatch;
            c.numRequests = requests;
            c.warmupRequests = defaultWarmupRequests(kBatch);
            c.maxStages = kMaxStages;
            configs.push_back(c);
        }
    }
    // Per-run observers on the parallel sweep: every run gets its
    // own SloAttainment instance from the factory and returns it
    // filled alongside the SimResult.
    const SloSpec slo;
    const ObserverFactory factory = [slo](const SimConfig &) {
        std::vector<std::unique_ptr<SimObserver>> obs;
        obs.push_back(std::make_unique<SloAttainment>(slo));
        return obs;
    };
    std::vector<ObservedRun> runs;
    const double wall_sec = timed(
        [&] { runs = SweepRunner().runObserved(configs, factory); });

    Table t({"Workload", "System", "tokens/s", "TBT p99 ms",
             "T2FT p50 ms", "TTFT att", "TBT att", "req att",
             "goodput/s"});
    std::int64_t total_retired = 0;
    std::size_t next = 0;
    for (const std::string &workload : workloads) {
        for (const std::string &system : systems) {
            const ObservedRun &run = runs[next++];
            const SimResult &r = run.result;
            const auto *attainment =
                dynamic_cast<const SloAttainment *>(
                    run.observers.front().get());
            total_retired += attainment->totalRequests();
            t.startRow();
            t.cell(WorkloadRegistry::instance().displayName(
                workload));
            t.cell(systemLabel(system));
            t.cell(r.metrics.throughputTokensPerSec(), 0);
            t.cell(r.metrics.tbtMs.percentile(99), 2);
            t.cell(r.metrics.t2ftMs.percentile(50), 1);
            t.cell(r.metrics.t2ftAttainment(slo), 2);
            t.cell(r.metrics.tbtAttainment(slo), 2);
            t.cell(attainment->attainment(), 2);
            t.cell(attainment->goodputTokensPerSec(), 0);
        }
    }
    t.print();
    std::printf("\nSLO: TTFT < %.0f ms, TBT < %.0f ms. Scenario "
                "mixes shift the prefill/decode balance: "
                "summarize-heavy streams punish prefill "
                "bandwidth, codegen-heavy streams reward decode "
                "throughput, and bursty/diurnal arrivals expose "
                "the queueing the closed loop never sees.\n",
                slo.t2ftMs, slo.tbtMs);

    return reportSweep("scenarios", runs.size(), total_retired,
                       wall_sec, args.getString("json"));
}
