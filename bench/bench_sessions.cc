/**
 * @file
 * Session bench: the KV prefix cache under multi-turn traffic —
 * cache budget x eviction policy x routing policy, judged by hit
 * rate, the warm-vs-cold TTFT gap, SLO attainment and goodput.
 *
 * Every cell is one FleetDriver run (fleet/fleet.hh) of 2 gpu
 * instances over the "session" workload (workload/source.hh): fresh
 * sessions arrive open-loop, each turn's prompt grows over a shared
 * system prefix, and the next turn releases only after the previous
 * one retires (plus think time). Each instance owns an independent
 * PrefixCachePool (src/kvcache/), so the fleet-wide hit rate
 * directly exposes the routing question: session-affinity keeps a
 * session's turns on the instance holding their prefix KV;
 * least-loaded scatters them and eats cold prefills. A zero-budget
 * baseline row pins the cache-off behavior per policy.
 *
 * Output discipline (same as bench_fleet): the sweep table goes to
 * stdout — the CI determinism job diffs two runs byte-for-byte.
 * Wall-clock and RSS go to stderr and, with --json=PATH, into a
 * perf report the CI perf gate reads (sessions.requests_per_sec
 * floor; see tools/check_perf.py).
 *
 *   ./bench_sessions                     # the full sweep
 *   ./bench_sessions --requests=48       # quick smoke run
 *   ./bench_sessions --json=BENCH_sessions.json
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/argparse.hh"
#include "common/number.hh"
#include "fleet/fleet.hh"
#include "kvcache/prefix_cache.hh"

using namespace duplex;

namespace
{

constexpr int kFleetSize = 2;
constexpr double kSessionQpsPerInstance = 1.5;

/** Budgets in MiB; 0 = cache off (the baseline rows). Mixtral KV
 *  is 128 KiB/token, so 512 MiB holds ~4k cached tokens — enough
 *  for a couple of live sessions, tight enough to force eviction. */
constexpr double kCacheMb[] = {0.0, 512.0, 2048.0};

const std::vector<std::string> &
sweepPolicies()
{
    static const std::vector<std::string> policies = {
        "least-loaded", "session-affinity"};
    return policies;
}

/** One sweep cell and its outcome. */
struct SessionCell
{
    double cacheMb = 0.0;
    std::string evict;
    std::string policy;

    FleetResult result;
    double warmT2ftMs = 0.0;
    double coldT2ftMs = 0.0;
    std::int64_t warm = 0;
    std::int64_t cold = 0;
    double attainment = 0.0;
    double goodput = 0.0;
};

FleetConfig
cellConfig(const SessionCell &cell, int requests_per_instance)
{
    FleetConfig fc;
    fc.sim.systemName = "gpu";
    fc.sim.model = mixtralConfig();
    fc.sim.maxBatch = 16;
    fc.sim.workloadName = "session";
    fc.sim.workload.meanInputLen = 256;
    fc.sim.workload.meanOutputLen = 64;
    // Fresh-session rate; turns release closed-loop on retirement.
    fc.sim.workload.qps = kSessionQpsPerInstance * kFleetSize;
    fc.sim.workload.sessionTurns = 4;
    fc.sim.workload.sharedPrefixTokens = 128;
    fc.sim.workload.meanThinkSec = 0.5;
    fc.sim.numRequests = requests_per_instance * kFleetSize;
    fc.sim.warmupRequests =
        defaultWarmupRequests(fc.sim.maxBatch) / kFleetSize;
    // The requests/s number only means something if every request
    // retires; the cap is a runaway backstop, not the run's end.
    fc.sim.maxStages = 2000000;
    fc.sim.prefixCache.budgetBytes = mibToBytes(cell.cacheMb);
    fc.sim.prefixCache.evictPolicy =
        cell.evict.empty() ? "lru" : cell.evict;
    fc.sim.prefixCache.sharedPrefixTokens =
        fc.sim.workload.sharedPrefixTokens;
    fc.instances = kFleetSize;
    fc.policy = cell.policy;
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
                 "write session perf metrics to this file", "");
    args.parse(argc, argv);

    const int requests_per_instance =
        static_cast<int>(args.getInt("requests"));
    const SloSpec slo{args.getDouble("ttft-slo"),
                      args.getDouble("tbt-slo")};

    banner("Session serving: KV prefix cache x eviction x routing");
    std::printf("%d gpu instances, session workload (4 turns, "
                "shared prefix 128, user ~256, reply ~64, think "
                "0.5 s) at %.1f sessions/s/instance, %d "
                "request(s)/instance, TTFT < %.0f ms, TBT < %.0f "
                "ms\n",
                kFleetSize, kSessionQpsPerInstance,
                requests_per_instance, slo.t2ftMs, slo.tbtMs);

    // cache budget x eviction x routing policy; the cache-off
    // baseline collapses the eviction axis ("-").
    std::vector<SessionCell> cells;
    for (double mb : kCacheMb) {
        const std::vector<std::string> evictions =
            mb > 0.0 ? registeredEvictionPolicies()
                     : std::vector<std::string>{""};
        for (const std::string &evict : evictions)
            for (const std::string &policy : sweepPolicies())
                cells.push_back({mb, evict, policy, {}, 0.0, 0.0,
                                 0, 0, 0.0, 0.0});
    }

    std::vector<std::function<void()>> tasks;
    tasks.reserve(cells.size());
    for (SessionCell &cell : cells)
        tasks.push_back([&cell, requests_per_instance, slo] {
            FleetDriver driver(
                cellConfig(cell, requests_per_instance));
            FleetSloAttainment attainment(slo);
            FleetPrefixCacheStats cache_stats;
            driver.addObserver(&attainment);
            driver.addObserver(&cache_stats);
            cell.result = driver.run();
            cell.warmT2ftMs = cache_stats.stats().warmT2ftMs();
            cell.coldT2ftMs = cache_stats.stats().coldT2ftMs();
            cell.warm = cache_stats.stats().warmRequests();
            cell.cold = cache_stats.stats().coldRequests();
            cell.attainment = attainment.attainment().attainment();
            cell.goodput =
                attainment.attainment().goodputTokensPerSec();
        });

    const double wall_sec =
        timed([&] { SweepRunner().runTasks(tasks); });

    // ---- deterministic sweep table (stdout, diffed by CI) ------
    Table t({"Cache MiB", "Evict", "Policy", "hit rate",
             "warm TTFT ms", "cold TTFT ms", "SLO att",
             "goodput/s", "retired"});
    std::int64_t total_retired = 0;
    for (const SessionCell &cell : cells) {
        total_retired += cell.result.requestsRetired;
        t.startRow();
        t.cell(cell.cacheMb, 0);
        t.cell(cell.evict.empty() ? "-" : cell.evict);
        t.cell(cell.policy);
        t.cell(cell.result.prefixCache.hitRate(), 3);
        t.cell(cell.warmT2ftMs, 1);
        t.cell(cell.coldT2ftMs, 1);
        t.cell(cell.attainment, 3);
        t.cell(cell.goodput, 0);
        t.cell(static_cast<double>(cell.result.requestsRetired), 0);
    }
    t.print();
    std::printf("Warm = retired with a prefix-cache hit "
                "(cachedTokens > 0); hit rate counts admission "
                "probes fleet-wide. Attainment covers every "
                "retired request.\n");

    return reportSweep("sessions", cells.size(), total_retired, wall_sec,
                       args.getString("json"));
}
