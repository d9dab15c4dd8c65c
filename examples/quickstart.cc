/**
 * @file
 * Quickstart: simulate Mixtral serving on a chosen set of systems
 * and workloads, print throughput, latency, SLO attainment and
 * energy.
 *
 *   ./quickstart --model=mixtral --batch=64 --lin=1024 --lout=1024
 *   ./quickstart --system=bank-pim        # any registered system
 *   ./quickstart --system=duplex-split --qps=6   # open-loop arrivals
 *   ./quickstart --workload=bursty        # any registered workload
 *   ./quickstart --workload=mixed --qps=8 # scenario mix, open loop
 *   ./quickstart --save-trace=run.csv     # dump the request stream
 *   ./quickstart --trace=run.csv          # ... and replay it
 *   ./quickstart --fleet=4 --policy=least-loaded --qps=8
 *                                         # routed multi-instance fleet
 *   ./quickstart --fleet=1 --autoscale --workload=diurnal
 *                                         # arrival-rate autoscaling
 *   ./quickstart --fleet=4 --qps=8 --faults="crash@2:0;degrade@4:1:2"
 *                                         # scripted fault injection
 *   ./quickstart --fleet=4 --qps=8 --mtbf=5 --mttr=1 \
 *                --policy=healthy-first   # seeded random faults
 *   ./quickstart --sched=priority --priority-frac=0.25 --qps=8
 *                                         # class-aware admission + preemption
 *   ./quickstart --sched=ttft-protect --prefill-chunk=256 --qps=8
 *                                         # burst-protected, chunked prefill
 *   ./quickstart --workload=session --qps=2 --prefix-cache=64
 *                                         # multi-turn chat + KV prefix cache
 *   ./quickstart --workload=session --prefix-cache=64 --evict=lfu \
 *                --fleet=2 --policy=session-affinity --qps=4
 *                                         # cache-local session routing
 *   ./quickstart --list-systems
 *   ./quickstart --list-workloads
 *   ./quickstart --list-policies
 *   ./quickstart --list-scheds
 *   ./quickstart --list-evictions
 *
 * Every run reports its peak RSS on stderr; retired requests are
 * drained each stage so no finished Request is ever retained (only
 * the extracted latency samples grow; bench_longrun's bounded mode
 * is the truly flat-memory path).
 *
 * Also demonstrates the observer API: a StageTimeHistogram and an
 * SloAttainment observer ride along with every run (stage-latency
 * tail, TTFT/TBT attainment and goodput), and a GroupUtilization
 * observer prints the per-device-group breakdown (busy/link-wait
 * time) for disaggregated systems.
 */

#include <cstdio>

#include "common/argparse.hh"
#include "common/log.hh"
#include "common/number.hh"
#include "common/rss.hh"
#include "common/table.hh"
#include "fleet/fleet.hh"
#include "kvcache/prefix_cache.hh"
#include "sched/policy.hh"
#include "sim/engine.hh"
#include "sim/observers.hh"
#include "sim/registry.hh"
#include "workload/registry.hh"
#include "workload/trace.hh"

using namespace duplex;

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addFlag("model", "mixtral | glam | grok1 | opt | llama3",
                 "mixtral");
    args.addFlag("system",
                 "registered system id to run (see "
                 "--list-systems); empty runs the GPU-vs-Duplex "
                 "comparison",
                 "");
    args.addFlag("list-systems",
                 "list every registered serving system and exit",
                 "false");
    args.addFlag("workload",
                 "registered workload id to stream (see "
                 "--list-workloads); empty runs the synthetic "
                 "default",
                 "");
    args.addFlag("list-workloads",
                 "list every registered workload and exit",
                 "false");
    args.addFlag("trace",
                 "replay a recorded arrival,in,out CSV (implies "
                 "--workload=trace)",
                 "");
    args.addFlag("save-trace",
                 "dump the configured request stream to a CSV "
                 "before running",
                 "");
    args.addFlag("batch", "stage-level batch size", "64");
    args.addFlag("lin", "mean prompt length", "1024");
    args.addFlag("lout", "mean generation length", "256");
    args.addFlag("stages", "stages to simulate", "1500");
    args.addFlag("qps",
                 "Poisson arrival rate; 0 runs the closed loop",
                 "0");
    args.addFlag("tbt-slo", "TBT SLO in ms (attainment column)",
                 "40");
    args.addFlag("ttft-slo", "TTFT SLO in ms (attainment column)",
                 "1500");
    args.addFlag("fleet",
                 "run N serving instances behind a router instead "
                 "of the single-instance comparison (0 = off)",
                 "0");
    args.addFlag("policy",
                 "fleet routing policy (see --list-policies)",
                 "round-robin");
    args.addFlag("list-policies",
                 "list every registered routing policy and exit",
                 "false");
    args.addFlag("sessions",
                 "distinct sessions stamped onto the stream "
                 "(session-affinity routing; 0 = session-less)",
                 "0");
    args.addFlag("autoscale",
                 "scale the fleet on observed arrival rate "
                 "(open-loop workloads only)",
                 "false");
    args.addFlag("scale-min", "autoscale floor (instances)", "1");
    args.addFlag("scale-max", "autoscale ceiling (instances)", "8");
    args.addFlag("scale-up-qps",
                 "spin up above this observed QPS per instance",
                 "4");
    args.addFlag("scale-down-qps",
                 "drain an instance below this QPS per instance",
                 "1");
    args.addFlag("faults",
                 "scripted fleet faults: crash@sec:inst[:down-sec] "
                 "| degrade@sec:inst:window-sec[:factor] | "
                 "crash@sec:domain=D[:down-sec], separated by ';' "
                 "or ','",
                 "");
    args.addFlag("mtbf",
                 "mean time between random instance faults in "
                 "simulated seconds (0 = off; dedicated fault RNG "
                 "stream)",
                 "0");
    args.addFlag("mttr",
                 "mean repair time for random crashes (seconds)",
                 "2");
    args.addFlag("straggler-frac",
                 "fraction of random faults that degrade (straggle) "
                 "instead of crash",
                 "0");
    args.addFlag("straggler-factor",
                 "stage-time multiplier inside straggler windows",
                 "3");
    args.addFlag("retry-max",
                 "re-routes a crashed-out request may consume "
                 "before it is dropped",
                 "3");
    args.addFlag("retry-backoff",
                 "backoff before the first retry in simulated "
                 "seconds (doubles per attempt)",
                 "0.05");
    args.addFlag("domains",
                 "stripe the fleet across N failure domains "
                 "(racks); instance i lands in domain i%N (0 = no "
                 "domain topology)",
                 "0");
    args.addFlag("domain-mtbf",
                 "mean time between correlated whole-domain crashes "
                 "in simulated seconds (0 = off; dedicated "
                 "per-domain fault RNG stream)",
                 "0");
    args.addFlag("domain-mttr",
                 "mean repair time for correlated domain crashes in "
                 "seconds (0 = fall back to --mttr)",
                 "0");
    args.addFlag("drain-threshold",
                 "proactively drain an instance whose degrade "
                 "factor reaches this value: it stops admitting and "
                 "its queued requests migrate back through the "
                 "router (0 = never drain)",
                 "0");
    args.addFlag("scale-avail",
                 "availability-aware autoscaling: QPS thresholds "
                 "act on accepting capacity discounted by observed "
                 "unavailability (needs --autoscale; inert without "
                 "faults)",
                 "false");
    args.addFlag("sched",
                 "batcher scheduling policy (see --list-scheds)",
                 "fcfs");
    args.addFlag("list-scheds",
                 "list every registered scheduling policy and exit",
                 "false");
    args.addFlag("prefill-chunk",
                 "split prompts into chunks of at most N tokens "
                 "across stages (0 = whole prompt in one stage)",
                 "0");
    args.addFlag("priority-frac",
                 "fraction of requests stamped priority class 1 "
                 "(for --sched=priority; 0 = classless)",
                 "0");
    args.addFlag("prefix-cache",
                 "KV prefix-cache budget in MiB per instance (0 = "
                 "off; pays off with --workload=session)",
                 "0");
    args.addFlag("evict",
                 "prefix-cache eviction policy (see "
                 "--list-evictions)",
                 "lru");
    args.addFlag("list-evictions",
                 "list every registered eviction policy and exit",
                 "false");
    args.addFlag("turns",
                 "turns per session for --workload=session",
                 "4");
    args.addFlag("think",
                 "mean think time between session turns in "
                 "simulated seconds (--workload=session)",
                 "2");
    args.addFlag("shared-prefix",
                 "shared system-prompt tokens prepended to every "
                 "session's first turn (--workload=session)",
                 "256");
    args.parse(argc, argv);

    // Misconfiguration dies with one readable line instead of a
    // confusing run (or a panic deep inside the driver).
    const int fleet_size = static_cast<int>(args.getInt("fleet"));
    fatalIf(fleet_size < 0,
            "--fleet must be >= 0 (0 = single-instance mode)");
    fatalIf(args.getDouble("qps") < 0.0, "--qps must be >= 0");
    fatalIf(args.getInt("scale-min") < 1, "--scale-min must be >= 1");
    fatalIf(args.getInt("scale-max") < args.getInt("scale-min"),
            "--scale-max must be >= --scale-min");
    fatalIf(args.getDouble("scale-up-qps") <= 0.0,
            "--scale-up-qps must be > 0");
    fatalIf(args.getDouble("scale-down-qps") < 0.0,
            "--scale-down-qps must be >= 0");
    fatalIf(args.getInt("retry-max") < 0,
            "--retry-max must be >= 0 (0 = never retry)");
    fatalIf(args.getDouble("retry-backoff") < 0.0,
            "--retry-backoff must be >= 0");
    fatalIf(args.getDouble("mtbf") < 0.0, "--mtbf must be >= 0");
    fatalIf(args.getDouble("mtbf") > 0.0 &&
                args.getDouble("mttr") <= 0.0,
            "--mttr must be > 0 when --mtbf is set");
    fatalIf(args.getInt("domains") < 0,
            "--domains must be >= 0 (0 = no domain topology)");
    fatalIf(args.getDouble("domain-mtbf") < 0.0,
            "--domain-mtbf must be >= 0");
    fatalIf(args.getDouble("domain-mttr") < 0.0,
            "--domain-mttr must be >= 0");
    fatalIf(args.getDouble("domain-mtbf") > 0.0 &&
                args.getInt("domains") == 0,
            "--domain-mtbf needs a domain topology (--domains=N)");
    fatalIf(args.getDouble("domain-mtbf") > 0.0 &&
                args.getDouble("domain-mttr") <= 0.0 &&
                args.getDouble("mttr") <= 0.0,
            "--domain-mtbf needs a repair time (--domain-mttr or "
            "--mttr)");
    fatalIf(args.getDouble("drain-threshold") < 0.0,
            "--drain-threshold must be >= 0 (0 = never drain)");
    const bool wants_faults =
        !args.getString("faults").empty() ||
        args.getDouble("mtbf") > 0.0 ||
        args.getDouble("domain-mtbf") > 0.0;
    fatalIf(wants_faults && fleet_size == 0,
            "--faults/--mtbf/--domain-mtbf need a fleet "
            "(--fleet=N)");
    fatalIf(args.getInt("domains") > 0 && fleet_size == 0,
            "--domains needs a fleet (--fleet=N)");
    fatalIf(args.getDouble("drain-threshold") > 0.0 &&
                fleet_size == 0,
            "--drain-threshold needs a fleet (--fleet=N)");
    const std::string sched = args.getString("sched");
    fatalIf(!SchedulingPolicyRegistry::instance().contains(sched),
            "--sched=" + sched +
                " is not a registered scheduling policy (see "
                "--list-scheds)");
    const std::int64_t prefill_chunk = args.getInt("prefill-chunk");
    fatalIf(prefill_chunk < 0,
            "--prefill-chunk must be >= 0 (0 = whole-prompt "
            "prefill)");
    const double priority_frac = args.getDouble("priority-frac");
    fatalIf(priority_frac < 0.0 || priority_frac > 1.0,
            "--priority-frac must be in [0, 1]");
    const double cache_mb = args.getDouble("prefix-cache");
    fatalIf(cache_mb < 0.0,
            "--prefix-cache must be >= 0 (MiB; 0 = off)");
    const std::string evict = args.getString("evict");
    fatalIf(!EvictionPolicyRegistry::instance().contains(evict),
            "--evict=" + evict +
                " is not a registered eviction policy (see "
                "--list-evictions)");
    fatalIf(args.getInt("turns") < 1, "--turns must be >= 1");
    fatalIf(args.getDouble("think") < 0.0,
            "--think must be >= 0");
    fatalIf(args.getInt("shared-prefix") < 0,
            "--shared-prefix must be >= 0");

    // Each --list-* flag prints one registry; the system and
    // workload tables also carry the display name.
    const auto list = [](const auto &registry, bool named) {
        Table t(named ? std::vector<std::string>{"id", "name", "summary"}
                      : std::vector<std::string>{"id", "summary"});
        for (const std::string &id : registry.ids()) {
            t.startRow();
            t.cell(id);
            if (named)
                t.cell(registry.displayName(id));
            t.cell(registry.summary(id));
        }
        t.print();
        return 0;
    };
    if (args.getBool("list-systems"))
        return list(SystemRegistry::instance(), true);
    if (args.getBool("list-workloads"))
        return list(WorkloadRegistry::instance(), true);
    if (args.getBool("list-policies"))
        return list(RoutingPolicyRegistry::instance(), false);
    if (args.getBool("list-scheds"))
        return list(SchedulingPolicyRegistry::instance(), false);
    if (args.getBool("list-evictions"))
        return list(EvictionPolicyRegistry::instance(), false);

    const ModelConfig model = modelByName(args.getString("model"));
    std::printf("Model %s: %.1fB parameters, %d layers, "
                "%d experts, KV %0.f KiB/token\n",
                model.name.c_str(), model.totalParams() / 1e9,
                model.numLayers, model.numExperts,
                static_cast<double>(model.kvBytesPerToken()) /
                    1024.0);
    const SystemTopology topo = defaultTopology(model);
    std::printf("System: %d node(s) x %d devices\n",
                topo.numNodes, topo.devicesPerNode);

    // The workload every run streams; --trace wins over --workload.
    std::string workload = args.getString("workload");
    WorkloadSpec spec;
    spec.meanInputLen = args.getInt("lin");
    spec.meanOutputLen = args.getInt("lout");
    spec.qps = args.getDouble("qps");
    spec.numSessions = static_cast<int>(args.getInt("sessions"));
    spec.priorityFrac = priority_frac;
    spec.sessionTurns = static_cast<int>(args.getInt("turns"));
    spec.sharedPrefixTokens = args.getInt("shared-prefix");
    spec.meanThinkSec = args.getDouble("think");
    spec.tracePath = args.getString("trace");
    if (!spec.tracePath.empty())
        workload = "trace";
    const std::string workload_id =
        workload.empty() ? "synthetic" : workload;

    // The KV prefix cache every run below installs (disabled at
    // the default --prefix-cache=0 — every cache branch in the
    // simulator is then byte-identical to a cache-less build). The
    // shared-prefix seed entry only makes sense when the workload
    // actually shares a prefix across sessions.
    PrefixCacheSpec cache;
    cache.budgetBytes = mibToBytes(cache_mb);
    cache.evictPolicy = evict;
    if (workload_id == "session")
        cache.sharedPrefixTokens = spec.sharedPrefixTokens;
    // One throwaway source serves both the banner and --save-trace;
    // each run below builds its own fresh source through the
    // registry, so their RNG streams stay untouched.
    const std::unique_ptr<WorkloadSource> source =
        makeWorkload(workload_id, spec);
    std::printf("Workload: %s\n", source->describe().c_str());
    // Non-default scheduling only: the default fcfs/no-chunk banner
    // stays byte-identical to pre-policy builds (golden contract).
    if (sched != "fcfs" || prefill_chunk > 0) {
        std::printf("Scheduler: %s", sched.c_str());
        if (prefill_chunk > 0)
            std::printf(", prefill chunk %lld token(s)",
                        static_cast<long long>(prefill_chunk));
        if (priority_frac > 0.0)
            std::printf(", priority frac %.2f", priority_frac);
        std::printf("\n");
    }
    // Gated on the spec so cache-less runs print byte-identically
    // to builds that predate the kvcache subsystem.
    if (cache.enabled())
        std::printf("Prefix cache: %.1f MiB per instance, evict "
                    "%s\n",
                    cache_mb, evict.c_str());
    std::printf("\n");

    const int batch = static_cast<int>(args.getInt("batch"));
    const int num_requests = 4 * batch;

    // --save-trace materializes the stream a run would consume and
    // dumps it in the workload/trace.hh CSV format.
    const std::string save_path = args.getString("save-trace");
    if (!save_path.empty()) {
        std::vector<Request> requests;
        for (std::int64_t i = 0;
             i < num_requests && source->remaining() > 0; ++i)
            requests.push_back(source->next());
        saveTrace(save_path, requests);
        std::printf("Saved %zu request(s) to %s\n\n",
                    requests.size(), save_path.c_str());
    }

    std::vector<std::string> systems = {"gpu", "duplex",
                                        "duplex-pe",
                                        "duplex-pe-et"};
    const std::string requested = args.getString("system");
    if (!requested.empty()) {
        // The GPU baseline stays in front for the "vs GPU" column.
        systems = {"gpu"};
        if (requested != "gpu")
            systems.push_back(requested);
    }

    const SloSpec slo{args.getDouble("ttft-slo"),
                      args.getDouble("tbt-slo")};

    // --fleet=N runs a routed multi-instance fleet of ONE system
    // (default gpu) instead of the GPU-vs-Duplex comparison. All
    // fleet output below is simulated-time-deterministic; the CI
    // determinism job runs this path twice and diffs stdout.
    if (fleet_size > 0) {
        FleetConfig fc;
        if (!requested.empty())
            fc.sim.systemName = requested;
        fc.sim.model = model;
        fc.sim.workloadName = workload;
        fc.sim.maxBatch = batch;
        fc.sim.workload = spec;
        // The shared stream scales with the fleet, and the warm-up
        // budget — a property of that stream — splits across it, so
        // every instance keeps post-warm-up samples even when the
        // per-instance stage cap bounds the simulated span.
        fc.sim.numRequests = num_requests * fleet_size;
        fc.sim.warmupRequests =
            defaultWarmupRequests(batch) / fleet_size;
        fc.sim.maxStages = args.getInt("stages");
        fc.sim.schedPolicy = sched;
        fc.sim.prefillChunkTokens = prefill_chunk;
        fc.sim.prefixCache = cache;
        fc.instances = fleet_size;
        fc.policy = args.getString("policy");
        fc.scaling.enabled = args.getBool("autoscale");
        fc.scaling.minInstances =
            static_cast<int>(args.getInt("scale-min"));
        fc.scaling.maxInstances =
            static_cast<int>(args.getInt("scale-max"));
        fc.scaling.upQpsPerInstance =
            args.getDouble("scale-up-qps");
        fc.scaling.downQpsPerInstance =
            args.getDouble("scale-down-qps");
        if (!args.getString("faults").empty())
            fc.faults.events =
                parseFaultList(args.getString("faults"));
        fc.faults.mtbfSec = args.getDouble("mtbf");
        fc.faults.mttrSec = args.getDouble("mttr");
        fc.faults.stragglerFraction =
            args.getDouble("straggler-frac");
        fc.faults.stragglerFactor =
            args.getDouble("straggler-factor");
        fc.faults.numDomains =
            static_cast<int>(args.getInt("domains"));
        fc.faults.domainMtbfSec = args.getDouble("domain-mtbf");
        fc.faults.domainMttrSec = args.getDouble("domain-mttr");
        fc.faults.drainFactorThreshold =
            args.getDouble("drain-threshold");
        fc.scaling.availabilityAware = args.getBool("scale-avail");
        fc.retry.maxAttempts =
            static_cast<int>(args.getInt("retry-max"));
        fc.retry.backoffSec = args.getDouble("retry-backoff");

        std::printf("Fleet: %d x %s, policy %s%s\n", fc.instances,
                    SystemRegistry::instance()
                        .displayName(fc.sim.systemName)
                        .c_str(),
                    fc.policy.c_str(),
                    fc.scaling.enabled ? ", autoscaling" : "");

        FleetDriver driver(fc);
        FleetSloAttainment fleet_slo(slo);
        FleetUtilization util;
        FleetPrefixCacheStats fleet_cache;
        driver.addObserver(&fleet_slo);
        driver.addObserver(&util);
        driver.addObserver(&fleet_cache);
        const FleetResult r = driver.run();

        const SloAttainment &att = fleet_slo.attainment();
        Table ft({"Fleet", "tokens/s", "TBT p50 ms", "SLO att",
                  "goodput/s", "J/token"});
        ft.startRow();
        ft.cell(fc.policy);
        ft.cell(r.metrics.throughputTokensPerSec(), 0);
        ft.cell(r.metrics.tbtMs.percentile(50), 2);
        ft.cell(att.attainment(), 2);
        ft.cell(att.goodputTokensPerSec(), 0);
        ft.cell(r.generatedTokens > 0
                    ? r.totals.totalEnergyJ() /
                          static_cast<double>(r.generatedTokens)
                    : 0.0,
                3);
        ft.print();
        std::printf("Routed %lld request(s), retired %lld; peak %d "
                    "instance(s), makespan %.1f ms\n",
                    static_cast<long long>(r.requestsRouted),
                    static_cast<long long>(r.requestsRetired),
                    r.peakInstances, psToMs(r.metrics.elapsed));

        std::printf("\nInstance breakdown:\n");
        // The downtime/availability columns are gated on the fault
        // SPEC (not the outcome) so a fault-free fleet prints
        // byte-identically to a build without fault injection.
        std::vector<std::string> bt_cols = {
            "instance", "routed", "retired", "stages", "busy ms"};
        if (fc.faults.enabled()) {
            bt_cols.push_back("down ms");
            bt_cols.push_back("avail");
        }
        Table bt(bt_cols);
        for (const FleetUtilization::InstanceStats &s :
             util.instances()) {
            bt.startRow();
            bt.cell("#" + std::to_string(s.id));
            bt.cell(static_cast<double>(s.routed), 0);
            bt.cell(static_cast<double>(s.retired), 0);
            bt.cell(static_cast<double>(s.stages), 0);
            bt.cell(psToMs(s.busyTime), 1);
            if (fc.faults.enabled()) {
                const std::size_t idx =
                    static_cast<std::size_t>(s.id);
                const PicoSec down =
                    idx < r.perInstanceDowntime.size()
                        ? r.perInstanceDowntime[idx]
                        : 0;
                bt.cell(psToMs(down), 1);
                bt.cell(r.metrics.elapsed > 0
                            ? 1.0 - static_cast<double>(down) /
                                        static_cast<double>(
                                            r.metrics.elapsed)
                            : 1.0,
                        4);
            }
        }
        bt.print();

        // Gated on the spec, like the faults block below: a
        // cache-less fleet prints byte-identically to a build
        // without the kvcache subsystem.
        if (cache.enabled()) {
            const SloAttainment &a = fleet_slo.attainment();
            const PrefixCacheStats &cs = fleet_cache.stats();
            std::printf(
                "\nPrefix cache: hit rate %.2f (%lld/%lld "
                "lookups), %lld token(s) served warm, %lld "
                "install(s), %lld eviction(s)\n",
                r.prefixCache.hitRate(),
                static_cast<long long>(r.prefixCache.hits),
                static_cast<long long>(r.prefixCache.lookups),
                static_cast<long long>(r.prefixCache.hitTokens),
                static_cast<long long>(r.prefixCache.installs),
                static_cast<long long>(r.prefixCache.evictions));
            std::printf(
                "Warm TTFT %.1f ms over %lld request(s) vs cold "
                "%.1f ms over %lld; TTFT attainment %.2f warm / "
                "%.2f cold\n",
                cs.warmT2ftMs(),
                static_cast<long long>(cs.warmRequests()),
                cs.coldT2ftMs(),
                static_cast<long long>(cs.coldRequests()),
                a.warmT2ftAttainment(), a.coldT2ftAttainment());
        }

        if (!r.scaleEvents.empty()) {
            std::printf("\nScale events:\n");
            for (const ScaleEvent &e : r.scaleEvents) {
                const char *kind =
                    e.kind == ScaleEvent::Kind::Up ? "up"
                    : e.kind == ScaleEvent::Kind::Drain
                        ? "drain"
                        : "retire";
                std::printf("  t=%8.1f ms %-6s instance %d "
                            "(observed %.1f qps, %d accepting)\n",
                            psToMs(e.time), kind, e.instance,
                            e.observedQps, e.acceptingAfter);
            }
        }

        // Gated on the spec, not on the outcome, so a faulted
        // config that happened to fire nothing still reports — and
        // a fault-free run prints byte-identically to a build that
        // predates fault injection (the golden contract).
        if (fc.faults.enabled()) {
            std::printf("\nAvailability: %.4f (downtime %.1f ms "
                        "across %d instance(s))\n",
                        r.availability(),
                        psToMs(r.totalDowntime),
                        static_cast<int>(r.perInstance.size()));
            std::printf("Faults: %d crash(es), %d straggler "
                        "window(s); lost %lld request-attempt(s) "
                        "and %lld generated token(s), %lld "
                        "retry(ies), %lld dropped\n",
                        r.crashes, r.degradeWindows,
                        static_cast<long long>(r.requestsLost),
                        static_cast<long long>(r.lostWorkTokens),
                        static_cast<long long>(r.retriesScheduled),
                        static_cast<long long>(r.requestsDropped));
            // Each block below is gated on its own spec knob so
            // every pre-existing faulted configuration keeps
            // byte-identical stdout.
            if (fc.faults.drainFactorThreshold > 0.0)
                std::printf("Drains: %d proactive drain(s), %lld "
                            "queued request(s) migrated\n",
                            r.drains,
                            static_cast<long long>(
                                r.requestsMigrated));
            if (!r.perDomain.empty()) {
                std::printf("Per-domain availability "
                            "(worst-domain served %.4f):\n",
                            r.worstDomainAvailability());
                for (const DomainAvailability &d : r.perDomain)
                    std::printf(
                        "  domain %d: %d instance(s), %d "
                        "crash(es), %lld routed, %lld lost, down "
                        "%.1f ms, avail %.4f, served %.4f\n",
                        d.domain, d.instances, d.crashes,
                        static_cast<long long>(d.routed),
                        static_cast<long long>(d.lost),
                        psToMs(d.downtime), d.availability,
                        d.served());
            }
            if (!r.faultEvents.empty()) {
                std::printf("Fault timeline:\n");
                for (const FaultEvent &e : r.faultEvents) {
                    std::printf("  t=%8.1f ms %-7s instance %d",
                                psToMs(e.at),
                                faultKindName(e.kind), e.instance);
                    if (e.kind == FaultKind::Crash) {
                        if (e.domain >= 0)
                            std::printf(" [domain %d]", e.domain);
                        std::printf(e.duration < 0
                                        ? " (never rejoins)\n"
                                        : " (down %.1f ms)\n",
                                    psToMs(e.duration));
                    }
                    else if (e.kind == FaultKind::Degrade)
                        std::printf(" (x%.1f for %.1f ms)\n",
                                    e.factor, psToMs(e.duration));
                    else
                        std::printf("\n");
                }
            }
        }

        // Like the single-instance rows: a fleet cut at the
        // per-instance stage cap says so on stderr only.
        if (r.stageCapped)
            std::fprintf(stderr,
                         "warning: %s fleet stopped at --stages=%lld "
                         "with %lld request(s) unfinished; latency "
                         "percentiles cover a partial window\n",
                         SystemRegistry::instance()
                             .displayName(fc.sim.systemName)
                             .c_str(),
                         static_cast<long long>(fc.sim.maxStages),
                         static_cast<long long>(r.unfinishedRequests));
        std::fprintf(stderr, "peak RSS %.1f MB\n", peakRssMb());
        return 0;
    }

    Table t({"System", "tokens/s", "vs GPU", "TBT p50 ms",
             "stage p99 ms", "SLO att", "goodput/s", "J/token"});
    double gpu_thr = 0.0;
    bool gpu_capped = false; //!< the "vs GPU" denominator is partial
    std::vector<GroupUtilization> utilizations(systems.size());
    std::vector<PrefixCacheStats> cache_stats(systems.size());
    std::vector<PrefixCacheMetrics> cache_metrics(systems.size());
    std::vector<SloAttainment> attainments;
    for (std::size_t i = 0; i < systems.size(); ++i) {
        const std::string &system = systems[i];
        SimConfig c;
        c.systemName = system;
        c.model = model;
        c.workloadName = workload;
        c.maxBatch = batch;
        c.workload = spec;
        c.numRequests = num_requests;
        c.warmupRequests = defaultWarmupRequests(c.maxBatch);
        c.maxStages = args.getInt("stages");
        c.schedPolicy = sched;
        c.prefillChunkTokens = prefill_chunk;
        c.prefixCache = cache;
        SimulationEngine engine(c);
        StageTimeHistogram stage_times;
        SloAttainment attainment(slo);
        engine.addObserver(&stage_times);
        engine.addObserver(&attainment);
        engine.addObserver(&cache_stats[i]);
        engine.addObserver(&utilizations[i]);
        const SimResult r = engine.run();
        cache_metrics[i] = r.prefixCache;
        // A run cut at the stage cap says so on stderr, like the RSS
        // line, so the golden stdout stays as it was. The GPU row runs
        // first, under the same cap, and is every row's "vs GPU"
        // denominator.
        const std::string display =
            SystemRegistry::instance().displayName(system);
        if (r.stageCapped)
            std::fprintf(stderr,
                         "warning: %s stopped at --stages=%lld with "
                         "%lld request(s) unfinished; latency "
                         "percentiles cover a partial window%s\n",
                         display.c_str(),
                         static_cast<long long>(c.maxStages),
                         static_cast<long long>(r.unfinishedRequests),
                         gpu_capped ? ", and its vs GPU ratio compares "
                                      "two partial windows"
                                    : "");
        else if (gpu_capped)
            std::fprintf(stderr,
                         "warning: %s vs GPU divides by the GPU's "
                         "partial window (GPU stopped at "
                         "--stages=%lld)\n",
                         display.c_str(),
                         static_cast<long long>(c.maxStages));
        if (system == "gpu")
            gpu_capped = r.stageCapped;
        attainments.push_back(attainment);
        const double thr = r.metrics.throughputTokensPerSec();
        if (system == "gpu")
            gpu_thr = thr;
        t.startRow();
        t.cell(SystemRegistry::instance().displayName(system));
        t.cell(thr, 0);
        t.cell(thr / gpu_thr, 2);
        t.cell(r.metrics.tbtMs.percentile(50), 2);
        t.cell(stage_times.stageMs().percentile(99), 2);
        t.cell(attainment.attainment(), 2);
        t.cell(attainment.goodputTokensPerSec(), 0);
        t.cell(r.energyPerTokenJ(), 3);
    }
    t.print();
    std::printf("SLO: TTFT < %.0f ms and every TBT < %.0f ms; "
                "goodput counts only attaining requests. "
                "Attainment covers every retired request (incl. "
                "warm-up); tokens/s and TBT p50 are post-warm-up.\n",
                slo.t2ftMs, slo.tbtMs);

    // Gated on the spec: cache-less runs print byte-identically to
    // builds without the kvcache subsystem. The split system's
    // custom loop ignores the cache, so its row reports all-cold.
    if (cache.enabled()) {
        std::printf("\nPrefix cache (%.1f MiB, evict %s):\n",
                    cache_mb, evict.c_str());
        for (std::size_t i = 0; i < systems.size(); ++i) {
            const PrefixCacheMetrics &m = cache_metrics[i];
            const PrefixCacheStats &cs = cache_stats[i];
            std::printf(
                "  %-12s hit rate %.2f (%lld/%lld), %lld warm "
                "token(s), %lld eviction(s); warm TTFT %.1f ms "
                "x%lld vs cold %.1f ms x%lld (attain %.2f/%.2f)\n",
                SystemRegistry::instance()
                    .displayName(systems[i])
                    .c_str(),
                m.hitRate(), static_cast<long long>(m.hits),
                static_cast<long long>(m.lookups),
                static_cast<long long>(m.hitTokens),
                static_cast<long long>(m.evictions),
                cs.warmT2ftMs(),
                static_cast<long long>(cs.warmRequests()),
                cs.coldT2ftMs(),
                static_cast<long long>(cs.coldRequests()),
                attainments[i].warmT2ftAttainment(),
                attainments[i].coldT2ftAttainment());
        }
    }

    // Disaggregated systems report a per-device-group breakdown.
    for (std::size_t i = 0; i < systems.size(); ++i) {
        const GroupUtilization &util = utilizations[i];
        if (util.groups().empty())
            continue;
        std::printf("\n%s device groups:\n",
                    SystemRegistry::instance()
                        .displayName(systems[i])
                        .c_str());
        for (const GroupUtilization::Group &g : util.groups()) {
            std::printf("  %-8s %d device(s): busy %8.1f ms "
                        "(%.0f%% of run), KV-link wait %6.1f ms, "
                        "%lld stages\n",
                        g.name.c_str(), g.devices,
                        psToMs(g.busyTime),
                        100.0 * util.busyFraction(g.name),
                        psToMs(g.linkWaitTime),
                        static_cast<long long>(g.stages));
        }
    }

    // Memory-win visibility: peak RSS goes to stderr so the CI
    // determinism job's stdout diffs never see a non-deterministic
    // byte.
    std::fprintf(stderr, "peak RSS %.1f MB\n", peakRssMb());
    return 0;
}
