/**
 * @file
 * FleetDriver tests — the tentpole guarantees:
 *
 *  - Golden equivalence: a 1-instance round-robin fleet reproduces
 *    the bare SimulationEngine's SimResult bit-for-bit, closed and
 *    open loop (the fleet steps the identical DriverLoop code).
 *  - Determinism: two identical fleet runs agree sample-for-sample
 *    for every policy.
 *  - Least-loaded never admits past any instance's KV budget.
 *  - Autoscaling drains before retiring: a retired instance has
 *    zero in-flight requests, and every routed request retires.
 *  - Session affinity pins each session to one instance fleet-wide.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "fleet/fleet.hh"
#include "sim/engine.hh"
#include "sim/registry.hh"
#include "sim/sweep.hh"

namespace duplex
{
namespace
{

SimConfig
baseSim()
{
    SimConfig c;
    c.systemName = "gpu";
    c.model = mixtralConfig();
    c.maxBatch = 16;
    c.workload.meanInputLen = 256;
    c.workload.meanOutputLen = 64;
    c.numRequests = 48;
    c.warmupRequests = 8;
    c.maxStages = 20000;
    return c;
}

/** Bit-exact comparison of two sample accumulators. */
void
expectSameSamples(const SampleStats &a, const SampleStats &b,
                  const char *what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.sum(), b.sum()) << what; // same fp add order
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_EQ(a.percentile(p), b.percentile(p))
            << what << " p" << p;
}

void
expectSameSimResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.metrics.elapsed, b.metrics.elapsed);
    EXPECT_EQ(a.metrics.totalTokens, b.metrics.totalTokens);
    EXPECT_EQ(a.metrics.decodingOnlyStages,
              b.metrics.decodingOnlyStages);
    EXPECT_EQ(a.metrics.mixedStages, b.metrics.mixedStages);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.peakBatch, b.peakBatch);
    EXPECT_EQ(a.totals.time, b.totals.time);
    EXPECT_EQ(a.totals.totalEnergyJ(), b.totals.totalEnergyJ());
    expectSameSamples(a.metrics.tbtMs, b.metrics.tbtMs, "tbt");
    expectSameSamples(a.metrics.t2ftMs, b.metrics.t2ftMs, "t2ft");
    expectSameSamples(a.metrics.e2eMs, b.metrics.e2eMs, "e2e");
}

void
expectGoldenEquivalence(const SimConfig &sim)
{
    const SimResult bare = SimulationEngine(sim).run();

    FleetConfig fc;
    fc.sim = sim;
    fc.instances = 1;
    fc.policy = "round-robin";
    const FleetResult fleet = FleetDriver(fc).run();

    ASSERT_EQ(fleet.perInstance.size(), 1u);
    expectSameSimResult(fleet.perInstance[0], bare);
    // The merged view of a 1-instance fleet is that instance.
    expectSameSamples(fleet.metrics.e2eMs, bare.metrics.e2eMs,
                      "merged e2e");
    EXPECT_EQ(fleet.generatedTokens, bare.generatedTokens);
    EXPECT_EQ(fleet.requestsRouted, sim.numRequests);
    EXPECT_EQ(fleet.requestsRetired, sim.numRequests);
}

TEST(Fleet, OneInstanceMatchesBareEngineClosedLoop)
{
    expectGoldenEquivalence(baseSim());
}

TEST(Fleet, OneInstanceMatchesBareEngineOpenLoop)
{
    SimConfig sim = baseSim();
    sim.workload.qps = 8.0;
    expectGoldenEquivalence(sim);
}

TEST(Fleet, OneInstanceMatchesBareEngineOnDuplex)
{
    SimConfig sim = baseSim();
    sim.systemName = "duplex-pe-et";
    sim.workload.qps = 6.0;
    expectGoldenEquivalence(sim);
}

TEST(Fleet, RunsAreDeterministicForEveryPolicy)
{
    for (const std::string &policy :
         registeredRoutingPolicies()) {
        SCOPED_TRACE(policy);
        FleetConfig fc;
        fc.sim = baseSim();
        fc.sim.workload.qps = 12.0;
        fc.sim.workload.numSessions = 6;
        fc.sim.numRequests = 64;
        fc.instances = 4;
        fc.policy = policy;
        const FleetResult a = FleetDriver(fc).run();
        const FleetResult b = FleetDriver(fc).run();
        EXPECT_EQ(a.requestsRouted, b.requestsRouted);
        EXPECT_EQ(a.requestsRetired, b.requestsRetired);
        EXPECT_EQ(a.generatedTokens, b.generatedTokens);
        EXPECT_EQ(a.metrics.elapsed, b.metrics.elapsed);
        EXPECT_EQ(a.totals.time, b.totals.time);
        expectSameSamples(a.metrics.e2eMs, b.metrics.e2eMs, "e2e");
        expectSameSamples(a.metrics.tbtMs, b.metrics.tbtMs, "tbt");
        ASSERT_EQ(a.perInstance.size(), b.perInstance.size());
        for (std::size_t i = 0; i < a.perInstance.size(); ++i)
            EXPECT_EQ(a.perInstance[i].generatedTokens,
                      b.perInstance[i].generatedTokens)
                << "instance " << i;
    }
}

/** Watches every stage of every instance for KV overcommit. */
class KvBudgetWatch : public FleetObserver
{
  public:
    explicit KvBudgetWatch(std::int64_t max_kv) : maxKv_(max_kv) {}

    void onStage(int instance, const StageObservation &obs) override
    {
        EXPECT_LE(obs.kvTokens, maxKv_)
            << "instance " << instance << " stage " << obs.index;
        ++stages_;
    }

    std::int64_t stages() const { return stages_; }

  private:
    std::int64_t maxKv_;
    std::int64_t stages_ = 0;
};

TEST(Fleet, LeastLoadedNeverExceedsAnyInstanceKvBudget)
{
    FleetConfig fc;
    fc.sim = baseSim();
    // Long sequences against the GPU KV budget: admission pressure
    // on every instance.
    fc.sim.workload.meanInputLen = 2048;
    fc.sim.workload.meanOutputLen = 512;
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 96;
    fc.sim.maxStages = 100000;
    fc.instances = 3;
    fc.policy = "least-loaded";

    const std::int64_t max_kv =
        makeSystem("gpu", fc.sim.model)->maxKvTokens();
    KvBudgetWatch watch(max_kv);
    FleetDriver driver(fc);
    driver.addObserver(&watch);
    const FleetResult result = driver.run();
    EXPECT_GT(watch.stages(), 0);
    EXPECT_EQ(result.requestsRouted, result.requestsRetired);
}

/** Records the route map and scale events of a fleet run. */
class RouteRecorder : public FleetObserver
{
  public:
    void onRequestRouted(int instance, const Request &request,
                         PicoSec) override
    {
        routes.push_back({instance, request.sessionId});
    }

    void onScaleEvent(const ScaleEvent &event) override
    {
        events.push_back(event);
    }

    struct Route
    {
        int instance;
        std::int64_t session;
    };
    std::vector<Route> routes;
    std::vector<ScaleEvent> events;
};

TEST(Fleet, SessionAffinityPinsSessionsFleetWide)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 12.0;
    fc.sim.workload.numSessions = 8;
    fc.sim.numRequests = 64;
    fc.instances = 4;
    fc.policy = "session-affinity";

    RouteRecorder recorder;
    FleetDriver driver(fc);
    driver.addObserver(&recorder);
    driver.run();

    std::map<std::int64_t, int> pin;
    std::set<int> used;
    for (const RouteRecorder::Route &r : recorder.routes) {
        ASSERT_GE(r.session, 0);
        const auto it = pin.find(r.session);
        if (it == pin.end())
            pin[r.session] = r.instance;
        else
            EXPECT_EQ(it->second, r.instance)
                << "session " << r.session << " moved";
        used.insert(r.instance);
    }
    EXPECT_EQ(pin.size(), 8u);
    EXPECT_GT(used.size(), 1u) << "all sessions on one instance";
}

/** Session fleet config with a per-instance prefix cache. */
FleetConfig
sessionFleet(const std::string &policy)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workloadName = "session";
    fc.sim.workload.qps = 4.0; // fresh sessions/s
    fc.sim.workload.meanInputLen = 192;
    fc.sim.workload.meanOutputLen = 48;
    fc.sim.workload.sessionTurns = 4;
    fc.sim.workload.sharedPrefixTokens = 96;
    fc.sim.workload.meanThinkSec = 0.1;
    fc.sim.numRequests = 64;
    fc.sim.maxStages = 200000;
    fc.sim.prefixCache.budgetBytes = 512ll << 20;
    fc.sim.prefixCache.evictPolicy = "lru";
    fc.sim.prefixCache.sharedPrefixTokens =
        fc.sim.workload.sharedPrefixTokens;
    fc.instances = 2;
    fc.policy = policy;
    return fc;
}

TEST(Fleet, SessionCacheRunsAreDeterministic)
{
    // The retirement-feedback channel (instance retirements fold
    // back into the shared session stream) plus the per-instance
    // pools must keep double runs bit-identical.
    const FleetConfig fc = sessionFleet("session-affinity");
    const FleetResult a = FleetDriver(fc).run();
    const FleetResult b = FleetDriver(fc).run();
    EXPECT_EQ(a.requestsRouted, b.requestsRouted);
    EXPECT_EQ(a.requestsRetired, b.requestsRetired);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.metrics.elapsed, b.metrics.elapsed);
    expectSameSamples(a.metrics.e2eMs, b.metrics.e2eMs, "e2e");
    expectSameSamples(a.metrics.t2ftMs, b.metrics.t2ftMs, "t2ft");
    EXPECT_EQ(a.prefixCache.lookups, b.prefixCache.lookups);
    EXPECT_EQ(a.prefixCache.hits, b.prefixCache.hits);
    EXPECT_EQ(a.prefixCache.hitTokens, b.prefixCache.hitTokens);
    EXPECT_EQ(a.prefixCache.evictions, b.prefixCache.evictions);
    EXPECT_GT(a.prefixCache.hits, 0);
}

TEST(Fleet, SessionAffinityBeatsLeastLoadedOnHitRate)
{
    // Each instance owns its pool: affinity keeps a session's turns
    // on the instance holding their prefix KV; least-loaded
    // scatters them across cold pools.
    const FleetResult affinity =
        FleetDriver(sessionFleet("session-affinity")).run();
    const FleetResult scattered =
        FleetDriver(sessionFleet("least-loaded")).run();
    EXPECT_GT(affinity.prefixCache.hits, 0);
    EXPECT_GE(affinity.prefixCache.hitRate(),
              scattered.prefixCache.hitRate());
    // The fleet aggregates every instance's warm-token count.
    EXPECT_GT(affinity.prefixCache.hitTokens, 0);
}

TEST(Fleet, AutoscalingDrainsBeforeRetiring)
{
    FleetConfig fc;
    fc.sim = baseSim();
    // Two diurnal periods: the ramp peak forces scale-ups, the
    // trough forces drains.
    fc.sim.workloadName = "diurnal";
    fc.sim.workload.diurnalLowQps = 0.5;
    fc.sim.workload.diurnalHighQps = 40.0;
    fc.sim.workload.diurnalPeriodSec = 16.0;
    fc.sim.workload.meanInputLen = 128;
    fc.sim.workload.meanOutputLen = 32;
    fc.sim.numRequests = 600;
    fc.sim.maxStages = 200000;
    fc.instances = 1;
    fc.policy = "least-loaded";
    fc.scaling.enabled = true;
    fc.scaling.minInstances = 1;
    fc.scaling.maxInstances = 4;
    fc.scaling.upQpsPerInstance = 6.0;
    fc.scaling.downQpsPerInstance = 2.0;
    fc.scaling.windowSec = 2.0;
    fc.scaling.cooldownSec = 3.0;

    RouteRecorder recorder;
    FleetUtilization util;
    FleetDriver driver(fc);
    driver.addObserver(&recorder);
    driver.addObserver(&util);
    const FleetResult result = driver.run();

    // The ramp actually scaled, both directions.
    EXPECT_GE(result.scaleUps, 1);
    EXPECT_GE(result.scaleDowns, 1);
    EXPECT_GT(result.peakInstances, 1);
    EXPECT_EQ(result.scaleUps,
              static_cast<int>(result.perInstance.size()) -
                  fc.instances);

    // Drain-before-retire: every Retire event follows a Drain of
    // the same instance, never before its drain.
    std::set<int> draining;
    for (const ScaleEvent &e : recorder.events) {
        if (e.kind == ScaleEvent::Kind::Drain)
            draining.insert(e.instance);
        else if (e.kind == ScaleEvent::Kind::Retire)
            EXPECT_TRUE(draining.count(e.instance))
                << "instance " << e.instance
                << " retired without draining";
    }

    // Nothing in flight was dropped: every routed request retired,
    // on whichever instance it was routed to.
    EXPECT_EQ(result.requestsRouted, fc.sim.numRequests);
    EXPECT_EQ(result.requestsRetired, result.requestsRouted);
    std::int64_t routed = 0, retired = 0;
    for (const FleetUtilization::InstanceStats &s :
         util.instances()) {
        EXPECT_EQ(s.routed, s.retired) << "instance " << s.id;
        routed += s.routed;
        retired += s.retired;
    }
    EXPECT_EQ(routed, result.requestsRouted);
    EXPECT_EQ(retired, result.requestsRetired);
}

TEST(Fleet, FleetSloAttainmentCountsEveryRetirement)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 10.0;
    fc.instances = 2;
    fc.policy = "join-shortest-queue";

    FleetSloAttainment slo;
    FleetDriver driver(fc);
    driver.addObserver(&slo);
    const FleetResult result = driver.run();

    EXPECT_EQ(slo.attainment().totalRequests(),
              result.requestsRetired);
    EXPECT_GE(slo.attainment().attainment(), 0.0);
    EXPECT_LE(slo.attainment().attainment(), 1.0);
    EXPECT_GE(slo.attainment().goodputTokensPerSec(), 0.0);
}

TEST(Fleet, MoreInstancesRetireEverything)
{
    // Sanity across fleet sizes: all requests route and retire, and
    // round-robin spreads a closed-loop stream evenly.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.numRequests = 64;
    fc.instances = 4;
    fc.policy = "round-robin";

    FleetUtilization util;
    FleetDriver driver(fc);
    driver.addObserver(&util);
    const FleetResult result = driver.run();

    EXPECT_EQ(result.requestsRouted, 64);
    EXPECT_EQ(result.requestsRetired, 64);
    ASSERT_EQ(util.instances().size(), 4u);
    for (const FleetUtilization::InstanceStats &s :
         util.instances())
        EXPECT_EQ(s.routed, 16) << "instance " << s.id;
}

TEST(Fleet, FleetsOfDifferentSystemsRunConcurrently)
{
    // Fleets resolve their system id per config, with no shared
    // buffer, so they can spawn instances on several sweep workers
    // at once and still match serial runs of the same configs.
    std::vector<FleetConfig> configs(4);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        configs[i].sim = baseSim();
        configs[i].sim.systemName = i % 2 ? "duplex-pe" : "gpu";
        configs[i].sim.numRequests = 8;
        configs[i].instances = 4;
    }
    std::vector<FleetResult> parallel(configs.size());
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < configs.size(); ++i)
        tasks.push_back(
            [&, i] { parallel[i] = FleetDriver(configs[i]).run(); });
    SweepRunner(4).runTasks(tasks);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const FleetResult serial = FleetDriver(configs[i]).run();
        EXPECT_EQ(parallel[i].metrics.elapsed, serial.metrics.elapsed)
            << "config " << i;
        EXPECT_EQ(parallel[i].generatedTokens, serial.generatedTokens)
            << "config " << i;
    }
    EXPECT_NE(parallel[0].metrics.elapsed, parallel[1].metrics.elapsed)
        << "gpu and duplex-pe fleets should differ";
}

TEST(Fleet, ScalingRequiresOpenLoop)
{
    EXPECT_EXIT(
        {
            FleetConfig fc;
            fc.sim = baseSim(); // closed loop: no arrival stamps
            fc.scaling.enabled = true;
            FleetDriver(fc).run();
        },
        ::testing::ExitedWithCode(1), "open-loop");
}

TEST(Fleet, CustomLoopSystemIsFatal)
{
    // The split system's lifecycle lives in its own runCustomLoop;
    // a fleet of DriverLoops would silently skip it.
    EXPECT_EXIT(
        {
            FleetConfig fc;
            fc.sim = baseSim();
            fc.sim.systemName = "duplex-split";
            fc.instances = 2;
            FleetDriver(fc).run();
        },
        ::testing::ExitedWithCode(1),
        "FleetDriver: system 'duplex-split' runs its own driver "
        "loop");
}

} // namespace
} // namespace duplex
