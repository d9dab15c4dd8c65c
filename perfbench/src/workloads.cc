#include "workloads.hh"

#include <functional>
#include <limits>
#include <set>
#include <utility>

#include "digest.hh"
#include "kvcache/prefix_cache.hh"
#include "sim/driver.hh"
#include "sim/engine.hh"
#include "sim/registry.hh"
#include "sim/sweep.hh"
#include "trace.hh"
#include "workload/registry.hh"
#include "wrappers.hh"

using namespace duplex;

namespace perfbench
{

namespace
{

constexpr std::int64_t kNoStageCap =
    std::numeric_limits<std::int64_t>::max();

double
seconds(std::int64_t start, std::int64_t end)
{
    return static_cast<double>(end - start) * 1e-9;
}

/** Counts stages, retirements and retired prompt tokens. */
class RunCounter : public SimObserver
{
  public:
    std::int64_t stages = 0;
    std::int64_t retired = 0;
    std::int64_t promptTokens = 0;

    void onStage(const StageObservation &obs) override
    {
        (void)obs;
        ++stages;
    }

    void onRequestRetired(const Request &request, PicoSec now) override
    {
        (void)now;
        ++retired;
        promptTokens += request.inputLen;
    }
};

/** The fleet-level RunCounter. */
class FleetCounter : public FleetObserver
{
  public:
    std::int64_t stages = 0;
    std::int64_t retired = 0;
    std::int64_t promptTokens = 0;

    void onStage(int instance, const StageObservation &obs) override
    {
        (void)instance;
        (void)obs;
        ++stages;
    }

    void onRequestRetired(int instance, const Request &request,
                          PicoSec now) override
    {
        (void)instance;
        (void)now;
        ++retired;
        promptTokens += request.inputLen;
    }
};

/** A trace lane per sweep worker thread. */
int
threadLane()
{
    thread_local const int lane = Tracer::instance().newLane();
    return lane;
}

/**
 * RunCounter for one sweep configuration. Traced configurations also
 * record the engine run (onSimBegin to onSimEnd; the system build
 * before it is not included) as a Config span keyed by the
 * configuration's index.
 */
class SweepObserver : public RunCounter
{
  public:
    SweepObserver(bool traced, std::int64_t index)
        : traced_(traced), index_(index)
    {
    }

    void onSimBegin(const ServingSystem &system,
                    const SimConfig &config) override
    {
        (void)system;
        (void)config;
        start_ = nowNs();
    }

    void onSimEnd(const SimResult &result) override
    {
        (void)result;
        if (traced_)
            Tracer::instance().add({SpanKind::Config, threadLane(),
                                    index_, start_, nowNs()});
    }

  private:
    bool traced_;
    std::int64_t index_;
    std::int64_t start_ = 0;
};

void
addLatency(Digest &d, const SimResult &r)
{
    if (r.boundedLatency != nullptr) {
        const BoundedLatencyMetrics &h = *r.boundedLatency;
        d.add("ttft_p50_ms", h.t2ftMs.percentile(50));
        d.add("ttft_p99_ms", h.t2ftMs.percentile(99));
        d.add("tbt_p50_ms", h.tbtMs.percentile(50));
        d.add("tbt_p99_ms", h.tbtMs.percentile(99));
        return;
    }
    d.add("ttft_p50_ms", r.metrics.t2ftMs.percentile(50));
    d.add("ttft_p99_ms", r.metrics.t2ftMs.percentile(99));
    d.add("tbt_p50_ms", r.metrics.tbtMs.percentile(50));
    d.add("tbt_p99_ms", r.metrics.tbtMs.percentile(99));
}

void
addCache(Digest &d, const PrefixCacheMetrics &m)
{
    d.add("cache_lookups", m.lookups);
    d.add("cache_hits", m.hits);
    d.add("cache_hit_tokens", m.hitTokens);
    d.add("cache_installs", m.installs);
    d.add("cache_evictions", m.evictions);
    d.add("cache_installed_bytes", m.installedBytes);
    d.add("cache_resident_bytes", m.residentBytes);
}

void
require(bool ok, const std::string &what, Outcome &out)
{
    if (!ok)
        out.violations.push_back(what);
}

void
checkLedger(const PrefixCacheMetrics &m, const std::string &where,
            Outcome &out)
{
    require(m.installedBytes ==
                m.evictedBytes + m.acquiredBytes + m.residentBytes,
            where + ": prefix-cache byte ledger does not close "
                    "(installed != evicted + acquired + resident)",
            out);
}

// ------------------------------------------------------ moe-longrun

class MoeLongrun : public BenchWorkload
{
  public:
    MoeLongrun(std::uint64_t seed, Size size)
        : config_(moeLongrunConfig(seed, size))
    {
    }

    void setup() override
    {
        SystemOptions opts;
        opts.seed = config_.seed;
        makeSystem(config_.systemName, config_.model, opts);
        makeWorkload(config_.workloadIdOrDefault(), config_.workload);
    }

    Outcome run(bool traced) override
    {
        RunCounter counter;
        SimResult result;
        const std::int64_t start = nowNs();
        if (!traced) {
            SimulationEngine engine(config_);
            engine.addObserver(&counter);
            result = engine.run();
        } else {
            result = runTraced(counter);
        }
        const std::int64_t end = nowNs();

        Outcome out;
        out.hostSec = seconds(start, end);
        out.requests = counter.retired;
        out.stages = counter.stages;
        out.counters.cache = result.prefixCache;
        out.counters.promptTokens = counter.promptTokens;
        out.digest = engineDigest("moe-longrun", result, counter.stages,
                                  counter.retired);
        require(counter.retired == config_.numRequests,
                "moe-longrun: fault-free run left requests unretired "
                "(retired + dropped != requests)",
                out);
        require(counter.stages == result.metrics.decodingOnlyStages +
                                      result.metrics.mixedStages,
                "moe-longrun: observed stages != decode-only + mixed",
                out);
        checkLedger(result.prefixCache, "moe-longrun", out);
        return out;
    }

  private:
    SimConfig config_;

    /**
     * The engine's loop (SimulationEngine::run is exactly this loop
     * over DriverLoop), driven here so every step() is timed. Steps
     * that execute no stage (idle advances) get key -1.
     */
    SimResult runTraced(RunCounter &counter)
    {
        SimConfig c = config_;
        c.systemName = tracedId(c.systemName);
        c.workloadName = tracedId(c.workloadIdOrDefault());
        Tracer &tracer = Tracer::instance();
        const int lane = tracer.newLane();
        const std::int64_t start = nowNs();

        SimResult result;
        std::vector<Span> steps;
        {
            SystemOptions opts;
            opts.seed = c.seed;
            const std::unique_ptr<ServingSystem> system =
                makeSystem(c.systemName, c.model, opts);
            DriverLoop loop(c, *system, counter,
                            ArrivalQueue(makeWorkload(c.workloadName,
                                                      c.workload),
                                         c.numRequests));
            while (!loop.done()) {
                const std::int64_t before = loop.stages();
                const std::int64_t t0 = nowNs();
                loop.step();
                const std::int64_t t1 = nowNs();
                steps.push_back({SpanKind::Step, lane,
                                 loop.stages() > before ? before : -1,
                                 t0, t1});
            }
            result = loop.finish();
        }
        tracer.add({SpanKind::Run, lane, 0, start, nowNs()});
        tracer.addSpans(std::move(steps));
        return result;
    }
};

// ---------------------------------------------- dense-session-fleet

class SessionFleet : public BenchWorkload
{
  public:
    SessionFleet(std::uint64_t seed, Size size)
        : config_(sessionFleetConfig(seed, size))
    {
    }

    void setup() override
    {
        const SimConfig &sim = config_.sim;
        for (int i = 0; i < config_.instances; ++i) {
            SystemOptions opts;
            opts.seed = sim.seed + static_cast<std::uint64_t>(i);
            makeSystem(sim.systemName, sim.model, opts);
        }
        makeWorkload(sim.workloadIdOrDefault(), sim.workload);
        makeRoutingPolicy(config_.policy);
        makeEvictionPolicy(sim.prefixCache.evictPolicy);
    }

    Outcome run(bool traced) override
    {
        FleetConfig fc = config_;
        if (traced) {
            fc.sim.systemName = tracedId(fc.sim.systemName);
            fc.sim.workloadName = tracedId(fc.sim.workloadIdOrDefault());
            fc.policy = tracedId(fc.policy);
            fc.sim.prefixCache.evictPolicy =
                tracedId(fc.sim.prefixCache.evictPolicy);
        }
        FleetCounter counter;
        FleetResult result;
        const std::int64_t start = nowNs();
        {
            FleetDriver driver(fc);
            driver.addObserver(&counter);
            const std::int64_t run_start = nowNs();
            result = driver.run();
            if (traced)
                Tracer::instance().add(
                    {SpanKind::Run, Tracer::instance().newLane(), 0,
                     run_start, nowNs()});
        }
        const std::int64_t end = nowNs();

        Outcome out;
        out.hostSec = seconds(start, end);
        out.requests = counter.retired;
        out.stages = counter.stages;
        out.counters.retries = result.retriesScheduled;
        out.counters.migrated = result.requestsMigrated;
        out.counters.crashes = result.crashes;
        out.counters.cache = result.prefixCache;
        out.counters.promptTokens = counter.promptTokens;
        out.digest = fleetDigest(result, counter.stages);

        const std::int64_t requests = config_.sim.numRequests;
        require(result.requestsRetired + result.requestsDropped ==
                    requests,
                "dense-session-fleet: retired + dropped != requests", out);
        require(result.requestsRouted ==
                    requests + result.retriesScheduled +
                        result.requestsMigrated,
                "dense-session-fleet: routed != requests + retries + "
                "migrated",
                out);
        require(counter.retired == result.requestsRetired,
                "dense-session-fleet: observed retirements != "
                "requestsRetired",
                out);
        checkLedger(result.prefixCache, "dense-session-fleet", out);
        for (std::size_t i = 0; i < result.perInstance.size(); ++i)
            checkLedger(result.perInstance[i].prefixCache,
                        "dense-session-fleet instance " +
                            std::to_string(i),
                        out);
        return out;
    }

  private:
    FleetConfig config_;
};

// ------------------------------------------------------ paper-sweep

class PaperSweep : public BenchWorkload
{
  public:
    PaperSweep(std::uint64_t seed, Size size)
        : configs_(paperSweepConfigs(seed, size))
    {
    }

    int workers() const override { return runner_.workers(); }

    void setup() override
    {
        std::set<std::pair<std::string, std::string>> built;
        for (const SimConfig &c : configs_) {
            if (!built.insert({c.systemName, c.model.name}).second)
                continue;
            SystemOptions opts;
            opts.seed = c.seed;
            makeSystem(c.systemName, c.model, opts);
        }
        makeWorkload(configs_.front().workloadIdOrDefault(),
                     configs_.front().workload);
    }

    Outcome run(bool traced) override
    {
        std::vector<SimConfig> configs = configs_;
        if (traced)
            for (SimConfig &c : configs) {
                c.systemName = tracedId(c.systemName);
                c.workloadName = tracedId(c.workloadIdOrDefault());
            }
        // runObserved hands the factory configs[i] itself; its
        // address gives the index the Config span is keyed by (-1
        // should a runner ever pass a copy).
        const ObserverFactory factory =
            [&configs, traced](const SimConfig &config) {
                const SimConfig *first = configs.data();
                const SimConfig *last = first + configs.size();
                const bool inside =
                    std::less_equal<const SimConfig *>()(first,
                                                         &config) &&
                    std::less<const SimConfig *>()(&config, last);
                std::vector<std::unique_ptr<SimObserver>> observers;
                observers.push_back(std::make_unique<SweepObserver>(
                    traced, inside ? &config - first : -1));
                return observers;
            };

        const std::int64_t start = nowNs();
        std::vector<ObservedRun> runs =
            runner_.runObserved(configs, factory);
        const std::int64_t end = nowNs();
        if (traced)
            Tracer::instance().add({SpanKind::Run,
                                    Tracer::instance().newLane(), 0,
                                    start, end});

        Outcome out;
        out.hostSec = seconds(start, end);
        Digest digest;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const SimConfig &c = configs_[i];
            const SimResult &r = runs[i].result;
            const auto &counter =
                static_cast<const SweepObserver &>(*runs[i].observers[0]);
            out.requests += counter.retired;
            out.stages += counter.stages;
            out.counters.promptTokens += counter.promptTokens;
            out.counters.cache.merge(r.prefixCache);

            const std::string label =
                "config " + std::to_string(i) + " " + c.systemName +
                " " + c.model.name + " b" + std::to_string(c.maxBatch) +
                " " + std::to_string(c.workload.meanInputLen) + "/" +
                std::to_string(c.workload.meanOutputLen);
            out.digest += (i == 0 ? "" : "\n") +
                          engineDigest(label, r, counter.stages,
                                       counter.retired);
            require(counter.stages == c.maxStages ||
                        counter.retired == c.numRequests,
                    label + ": run ended before its stage cap with "
                            "requests unretired",
                    out);
            require(counter.retired <= c.numRequests,
                    label + ": retired more requests than injected", out);
            checkLedger(r.prefixCache, label, out);
        }
        return out;
    }

  private:
    std::vector<SimConfig> configs_;
    SweepRunner runner_;
};

} // namespace

const std::vector<std::string> &
benchWorkloadNames()
{
    static const std::vector<std::string> names = {
        "moe-longrun", "dense-session-fleet", "paper-sweep"};
    return names;
}

std::unique_ptr<BenchWorkload>
makeBenchWorkload(const std::string &name, std::uint64_t seed, Size size)
{
    if (name == "moe-longrun")
        return std::make_unique<MoeLongrun>(seed, size);
    if (name == "dense-session-fleet")
        return std::make_unique<SessionFleet>(seed, size);
    if (name == "paper-sweep")
        return std::make_unique<PaperSweep>(seed, size);
    return nullptr;
}

SimConfig
moeLongrunConfig(std::uint64_t seed, Size size)
{
    SimConfig c;
    c.systemName = "duplex-pe-et";
    c.model = mixtralConfig();
    c.maxBatch = 256;
    c.workload.meanInputLen = 256;
    c.workload.meanOutputLen = 64;
    // Just under the ~277 requests/s this system serves at batch
    // 256, so the queue stays stationary over the run.
    c.workload.qps = 240.0;
    c.workload.seed = seed;
    c.seed = seed;
    c.numRequests = size == Size::Full ? 10000 : 300;
    c.warmupRequests = defaultWarmupRequests(c.maxBatch);
    c.maxStages = kNoStageCap;
    c.metricsMode = MetricsMode::Bounded;
    return c;
}

FleetConfig
sessionFleetConfig(std::uint64_t seed, Size size)
{
    FleetConfig fc;
    SimConfig &sim = fc.sim;
    sim.systemName = "duplex-pe";
    sim.model = llama3Config();
    sim.maxBatch = 16;
    sim.workloadName = "session";
    sim.workload.meanInputLen = 256;
    sim.workload.meanOutputLen = 64;
    sim.workload.qps = 6.0; // fresh sessions/s, fleet-wide
    sim.workload.sessionTurns = 4;
    sim.workload.sharedPrefixTokens = 128;
    sim.workload.meanThinkSec = 0.5;
    sim.workload.seed = seed;
    sim.seed = seed;
    sim.numRequests = size == Size::Full ? 20000 : 400;
    sim.warmupRequests = defaultWarmupRequests(sim.maxBatch);
    sim.maxStages = kNoStageCap;
    sim.metricsMode = MetricsMode::Bounded;
    // Llama3-70B KV is 320 KiB/token: 1 GiB caches ~3.3k tokens per
    // instance, a handful of sessions, so lru evicts continuously.
    sim.prefixCache.budgetBytes = 1024LL * 1024 * 1024;
    sim.prefixCache.evictPolicy = "lru";
    sim.prefixCache.sharedPrefixTokens = sim.workload.sharedPrefixTokens;

    fc.instances = 4;
    fc.policy = "session-affinity";
    fc.faults.mtbfSec = 20.0;
    fc.faults.mttrSec = 1.0;
    fc.faults.stragglerFraction = 0.3;
    fc.faults.stragglerFactor = 3.0;
    fc.faults.drainFactorThreshold = 2.5;
    fc.faults.numDomains = 2;
    fc.faults.domainMtbfSec = 60.0;
    fc.faults.domainMttrSec = 1.0;
    fc.retry.maxAttempts = 8;
    return fc;
}

std::vector<SimConfig>
paperSweepConfigs(std::uint64_t seed, Size size)
{
    const std::vector<std::string> systems = {
        "gpu", "gpu-2x", "duplex", "duplex-pe", "duplex-pe-et"};
    const std::vector<int> batches =
        size == Size::Full ? std::vector<int>{32, 64, 128}
                           : std::vector<int>{32};
    std::vector<SimConfig> configs;
    for (const ModelConfig &model :
         {mixtralConfig(), glamConfig(), grok1Config()}) {
        std::vector<std::pair<std::int64_t, std::int64_t>> lengths =
            model.name == "GLaM"
                ? std::vector<std::pair<std::int64_t, std::int64_t>>{
                      {512, 512}, {1024, 1024}, {2048, 2048}}
                : std::vector<std::pair<std::int64_t, std::int64_t>>{
                      {256, 256}, {1024, 1024}, {4096, 4096}};
        if (size == Size::Tiny)
            lengths.resize(1);
        for (int batch : batches)
            for (const auto &[lin, lout] : lengths)
                for (const std::string &system : systems) {
                    SimConfig c;
                    c.systemName = system;
                    c.model = model;
                    c.maxBatch = batch;
                    c.workload.meanInputLen = lin;
                    c.workload.meanOutputLen = lout;
                    // The figure's request streams stay fixed (the
                    // default workload seed): the seed varies the
                    // expert-gate draws, so every seed prices the
                    // same stages and retires the same requests.
                    c.seed = seed;
                    c.numRequests = 4 * batch;
                    c.warmupRequests = defaultWarmupRequests(batch);
                    c.maxStages = 300;
                    configs.push_back(c);
                }
    }
    return configs;
}

std::string
engineDigest(const std::string &label, const SimResult &r,
             std::int64_t stages, std::int64_t retired)
{
    Digest d;
    d.line(label);
    d.add("busy_ps", r.totals.time);
    d.add("window_ps", r.metrics.elapsed);
    d.add("tokens", r.generatedTokens);
    d.add("window_tokens", r.metrics.totalTokens);
    d.add("stages", stages);
    d.add("decode_only_stages", r.metrics.decodingOnlyStages);
    d.add("mixed_stages", r.metrics.mixedStages);
    d.add("retired", retired);
    d.add("dropped", std::int64_t{0});
    d.add("peak_batch", std::int64_t{r.peakBatch});
    d.add("preemptions", r.preemptions);
    addLatency(d, r);
    d.add("energy_j", r.totals.totalEnergyJ());
    addCache(d, r.prefixCache);
    return d.text();
}

std::string
fleetDigest(const FleetResult &r, std::int64_t stages)
{
    Digest d;
    d.line("dense-session-fleet");
    d.add("busy_ps", r.totals.time);
    d.add("makespan_ps", r.metrics.elapsed);
    d.add("tokens", r.generatedTokens);
    d.add("window_tokens", r.metrics.totalTokens);
    d.add("stages", stages);
    d.add("routed", r.requestsRouted);
    d.add("retired", r.requestsRetired);
    d.add("dropped", r.requestsDropped);
    d.add("crashes", std::int64_t{r.crashes});
    d.add("degrade_windows", std::int64_t{r.degradeWindows});
    d.add("drains", std::int64_t{r.drains});
    d.add("migrated", r.requestsMigrated);
    d.add("lost", r.requestsLost);
    d.add("lost_work_tokens", r.lostWorkTokens);
    d.add("retries", r.retriesScheduled);
    d.add("downtime_ps", r.totalDowntime);
    d.add("peak_batch", std::int64_t{r.peakBatch});
    d.add("energy_j", r.totals.totalEnergyJ());
    d.add("availability", r.availability());
    d.add("worst_domain_served", r.worstDomainAvailability());
    addCache(d, r.prefixCache);
    for (std::size_t i = 0; i < r.perInstance.size(); ++i) {
        d.line("instance " + std::to_string(i));
        d.add("busy_ps", r.perInstance[i].totals.time);
        d.add("tokens", r.perInstance[i].generatedTokens);
        addLatency(d, r.perInstance[i]);
    }
    return d.text();
}

} // namespace perfbench
