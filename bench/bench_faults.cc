/**
 * @file
 * Availability bench: the failure-rate x routing-policy sweep —
 * what fault injection (fleet/faults.hh) does to SLO attainment,
 * goodput and availability, and how much of it a failure-aware
 * policy buys back.
 *
 * Every cell is one FleetDriver run: 4 gpu instances behind the
 * policy, one shared open-loop stream, and a seeded random fault
 * process at the row's MTBF (a quarter of the faults are straggler
 * windows, the rest fail-stop crashes with exponential repair).
 * The fault draws live on a dedicated per-instance RNG stream, so
 * every cell streams the exact same requests — the fault rate is
 * the only thing that changes down a column. Cells are independent
 * and run on the SweepRunner worker pool.
 *
 * Output discipline (same as bench_fleet): the sweep table goes to
 * stdout for the CI determinism diff; wall-clock and RSS go to
 * stderr and, with --json=PATH, into a perf report the CI perf gate
 * reads (faults.requests_per_sec floor; see tools/check_perf.py).
 *
 *   ./bench_faults                      # the full sweep
 *   ./bench_faults --requests=48        # quick smoke run
 *   ./bench_faults --json=BENCH_faults.json
 */

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

constexpr int kFleetSize = 4;
constexpr double kQpsPerInstance = 4.0;

/** The failure-rate axis: MTBF per instance in simulated seconds
 *  (0 = fault-free baseline row). */
constexpr double kMtbfSec[] = {0.0, 6.0, 2.0};

/** The correlated-failure axis: failure domains the fleet is
 *  striped across. */
constexpr int kDomainAxis[] = {2, 4};

/** Whole-domain crash rate for the correlated sweep (seconds). */
constexpr double kDomainMtbfSec = 4.0;

/** One sweep cell: a policy under a failure rate (domains > 0
 *  switches the cell to the correlated whole-domain crash
 *  process instead of independent per-instance faults). */
struct FaultCell
{
    std::string policy;
    double mtbfSec = 0.0;
    int domains = 0;

    FleetResult result;
    double attainment = 0.0;
    double goodput = 0.0;
};

FleetConfig
cellConfig(const FaultCell &cell, int requests_per_instance)
{
    FleetConfig fc;
    fc.sim.systemName = "gpu";
    fc.sim.model = mixtralConfig();
    fc.sim.maxBatch = 16;
    fc.sim.workload.meanInputLen = 256;
    fc.sim.workload.meanOutputLen = 64;
    fc.sim.workload.qps = kQpsPerInstance * kFleetSize;
    fc.sim.numRequests = requests_per_instance * kFleetSize;
    fc.sim.warmupRequests =
        defaultWarmupRequests(fc.sim.maxBatch) / kFleetSize;
    // Runaway backstop, not the run's end: the availability numbers
    // only mean something if the stream drains.
    fc.sim.maxStages = 2000000;
    fc.instances = kFleetSize;
    fc.policy = cell.policy;
    if (cell.domains > 0) {
        // Correlated sweep: whole domains crash together on the
        // per-domain fault stream; no independent instance faults,
        // so the domain process is the only noise source.
        fc.faults.numDomains = cell.domains;
        fc.faults.domainMtbfSec = kDomainMtbfSec;
        fc.faults.domainMttrSec = 0.5;
    } else {
        fc.faults.mtbfSec = cell.mtbfSec;
        fc.faults.mttrSec = 0.5;
        fc.faults.stragglerFraction = 0.25;
        fc.faults.stragglerFactor = 3.0;
    }
    fc.retry.maxAttempts = 3;
    fc.retry.backoffSec = 0.05;
    return fc;
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
                 "write fault-bench perf metrics to this file", "");
    args.parse(argc, argv);

    const int requests_per_instance =
        static_cast<int>(args.getInt("requests"));
    const SloSpec slo{args.getDouble("ttft-slo"),
                      args.getDouble("tbt-slo")};

    banner("Fault injection: availability x routing policy");
    std::printf("%d gpu instances, Lin 256, Lout 64, open loop at "
                "%.0f qps/instance, %d request(s)/instance, "
                "MTTR 0.5 s, 25%% stragglers, 3 retries, "
                "TTFT < %.0f ms, TBT < %.0f ms\n",
                kFleetSize, kQpsPerInstance, requests_per_instance,
                slo.t2ftMs, slo.tbtMs);

    // The full policy x failure-rate cross, every cell an
    // independent FleetDriver run on the worker pool.
    std::vector<FaultCell> cells;
    for (const std::string &policy : registeredRoutingPolicies())
        for (double mtbf : kMtbfSec)
            cells.push_back({policy, mtbf, 0, {}, 0.0, 0.0});
    // The correlated cross rides the same worker pool: every
    // policy under whole-domain crashes at each striping width.
    const std::size_t first_domain_cell = cells.size();
    for (const std::string &policy : registeredRoutingPolicies())
        for (int domains : kDomainAxis)
            cells.push_back({policy, 0.0, domains, {}, 0.0, 0.0});

    std::vector<std::function<void()>> tasks;
    tasks.reserve(cells.size());
    for (FaultCell &cell : cells)
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

    // ---- deterministic sweep tables (stdout, diffed by CI) -----
    Table t({"Policy", "MTBF s", "avail", "crashes", "straggle",
             "dropped", "SLO att", "goodput/s", "retired"});
    std::int64_t total_retired = 0;
    for (std::size_t i = 0; i < first_domain_cell; ++i) {
        const FaultCell &cell = cells[i];
        total_retired += cell.result.requestsRetired;
        t.startRow();
        t.cell(cell.policy);
        t.cell(cell.mtbfSec, 1);
        t.cell(cell.result.availability(), 4);
        t.cell(static_cast<double>(cell.result.crashes), 0);
        t.cell(static_cast<double>(cell.result.degradeWindows), 0);
        t.cell(static_cast<double>(cell.result.requestsDropped), 0);
        t.cell(cell.attainment, 3);
        t.cell(cell.goodput, 0);
        t.cell(static_cast<double>(cell.result.requestsRetired), 0);
    }
    t.print();
    std::printf("MTBF 0 = fault-free baseline. Goodput counts only "
                "SLO-attaining requests; dropped requests exhausted "
                "their retry budget.\n");

    // Correlated failure domains: whole racks crash together, so
    // what matters is the worst DOMAIN's request-weighted
    // availability — the metric domain-spread routing is built to
    // defend. "dom served" lists each domain's served fraction.
    std::printf("\nCorrelated domain crashes: domain MTBF %.0f s, "
                "repair 0.5 s, %d instances striped across D "
                "domains\n",
                kDomainMtbfSec, kFleetSize);
    Table dt({"Policy", "domains", "avail", "worst-dom",
              "dom served", "crashes", "dropped", "SLO att",
              "retired"});
    for (std::size_t i = first_domain_cell; i < cells.size(); ++i) {
        const FaultCell &cell = cells[i];
        total_retired += cell.result.requestsRetired;
        std::string served;
        for (const DomainAvailability &d : cell.result.perDomain) {
            if (!served.empty())
                served += "/";
            served += formatDouble(d.served(), 3);
        }
        dt.startRow();
        dt.cell(cell.policy);
        dt.cell(static_cast<double>(cell.domains), 0);
        dt.cell(cell.result.availability(), 4);
        dt.cell(cell.result.worstDomainAvailability(), 4);
        dt.cell(served);
        dt.cell(static_cast<double>(cell.result.crashes), 0);
        dt.cell(static_cast<double>(cell.result.requestsDropped),
                0);
        dt.cell(cell.attainment, 3);
        dt.cell(static_cast<double>(cell.result.requestsRetired),
                0);
    }
    dt.print();
    std::printf("worst-dom = min over domains of the "
                "request-weighted served fraction "
                "(1 - lost/routed).\n");

    return reportSweep("faults", cells.size(), total_retired, wall_sec,
                       args.getString("json"));
}
