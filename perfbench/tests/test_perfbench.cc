/**
 * @file
 * The benchmark's own tests: a tiny-size smoke run of every workload
 * (checked, repeatable, traced == untraced), and a check that each
 * traced wrapper — system, workload source, routing policy, eviction
 * policy — reproduces the unwrapped digest on its own.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include "fleet/policy.hh"
#include "kvcache/prefix_cache.hh"
#include "layers.hh"
#include "sim/engine.hh"
#include "sim/registry.hh"
#include "trace.hh"
#include "workloads.hh"
#include "wrappers.hh"

using namespace duplex;
using namespace perfbench;

namespace
{

class Counter : public SimObserver
{
  public:
    std::int64_t stages = 0;
    std::int64_t retired = 0;

    void onStage(const StageObservation &) override { ++stages; }
    void onRequestRetired(const Request &, PicoSec) override
    {
        ++retired;
    }
};

std::string
runEngine(const SimConfig &config)
{
    SimulationEngine engine(config);
    Counter counter;
    engine.addObserver(&counter);
    const SimResult r = engine.run();
    return engineDigest("engine", r, counter.stages, counter.retired);
}

std::string
runFleet(const FleetConfig &config)
{
    FleetDriver driver(config);
    const FleetResult r = driver.run();
    return fleetDigest(r, 0);
}

/** A small session fleet with a cache tight enough to evict. */
FleetConfig
smallSessionFleet()
{
    FleetConfig fc = sessionFleetConfig(3, Size::Tiny);
    fc.sim.numRequests = 160;
    fc.sim.prefixCache.budgetBytes = 256LL * 1024 * 1024;
    return fc;
}

std::int64_t
spansOf(SpanKind kind)
{
    std::int64_t n = 0;
    for (const Span &s : Tracer::instance().spans())
        n += s.kind == kind ? 1 : 0;
    return n;
}

class PerfbenchTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        registerTracedComponents();
        Tracer::instance().clear();
    }
};

} // namespace

TEST_F(PerfbenchTest, TinyWorkloadsAreCheckedRepeatableAndTraceable)
{
    for (const std::string &name : benchWorkloadNames()) {
        SCOPED_TRACE(name);
        const std::unique_ptr<BenchWorkload> w =
            makeBenchWorkload(name, 5, Size::Tiny);
        ASSERT_NE(w, nullptr);
        w->setup();
        const Outcome a = w->run(false);
        const Outcome b = w->run(false);
        EXPECT_TRUE(a.violations.empty());
        EXPECT_FALSE(a.digest.empty());
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_GT(a.requests, 0);
        EXPECT_GT(a.stages, 0);

        Tracer::instance().clear();
        const Outcome t = w->run(true);
        EXPECT_TRUE(t.violations.empty());
        EXPECT_EQ(t.digest, a.digest);

        const std::vector<LayerMetric> layers =
            layerMetrics(Tracer::instance(), t, w->workers());
        ASSERT_FALSE(layers.empty());
        for (const LayerMetric &m : layers) {
            if (m.name == "cluster.exec_calls") {
                EXPECT_EQ(m.value, static_cast<double>(t.stages));
            }
            if (m.name == "cluster.exec_share" ||
                m.name == "moe.draw_share") {
                EXPECT_LE(m.value, 1.0);
            }
        }
    }
}

TEST_F(PerfbenchTest, DifferentSeedsGiveDifferentInputs)
{
    const std::unique_ptr<BenchWorkload> a =
        makeBenchWorkload("moe-longrun", 1, Size::Tiny);
    const std::unique_ptr<BenchWorkload> b =
        makeBenchWorkload("moe-longrun", 2, Size::Tiny);
    EXPECT_NE(a->run(false).digest, b->run(false).digest);
}

TEST_F(PerfbenchTest, UnknownWorkloadIsRejected)
{
    EXPECT_EQ(makeBenchWorkload("no-such-workload", 1, Size::Tiny),
              nullptr);
}

TEST_F(PerfbenchTest, TracedSystemReproducesUnwrappedDigest)
{
    // Mixtral (MoE, aggregate view), Llama3 (dense) and Grok1 (the
    // multi-node exact stage view the wrapper must forward).
    const std::vector<std::pair<std::string, ModelConfig>> cases = {
        {"duplex-pe-et", mixtralConfig()},
        {"duplex-pe", llama3Config()},
        {"gpu", grok1Config()}};
    for (const auto &[system, model] : cases) {
        SCOPED_TRACE(system + " " + model.name);
        SimConfig c = paperSweepConfigs(9, Size::Tiny).front();
        c.systemName = system;
        c.model = model;
        const std::string plain = runEngine(c);
        c.systemName = tracedId(system);
        Tracer::instance().clear();
        EXPECT_EQ(runEngine(c), plain);
        ASSERT_EQ(Tracer::instance().execLogs().size(), 1u);
        EXPECT_FALSE(Tracer::instance().execLogs()[0].stages.empty());
    }
}

TEST_F(PerfbenchTest, TracedSourceReproducesUnwrappedDigest)
{
    for (const std::string workload : {"synthetic", "session"}) {
        SCOPED_TRACE(workload);
        SimConfig c = moeLongrunConfig(4, Size::Tiny);
        c.workloadName = workload;
        c.workload.sessionTurns = 3;
        c.prefixCache.budgetBytes = 512LL * 1024 * 1024;
        c.prefixCache.sharedPrefixTokens = 64;
        const std::string plain = runEngine(c);
        c.workloadName = tracedId(workload);
        Tracer::instance().clear();
        EXPECT_EQ(runEngine(c), plain);
        EXPECT_GT(spansOf(SpanKind::Next), 0);
    }
}

TEST_F(PerfbenchTest, TracedRoutingReproducesUnwrappedDigest)
{
    for (const std::string &policy : registeredRoutingPolicies()) {
        if (policy.rfind("traced:", 0) == 0)
            continue;
        SCOPED_TRACE(policy);
        FleetConfig fc = smallSessionFleet();
        fc.policy = policy;
        const std::string plain = runFleet(fc);
        fc.policy = tracedId(policy);
        Tracer::instance().clear();
        EXPECT_EQ(runFleet(fc), plain);
        EXPECT_GT(spansOf(SpanKind::Route), 0);
    }
}

TEST_F(PerfbenchTest, TracedEvictionReproducesUnwrappedDigest)
{
    for (const std::string &policy : registeredEvictionPolicies()) {
        if (policy.rfind("traced:", 0) == 0)
            continue;
        SCOPED_TRACE(policy);
        FleetConfig fc = smallSessionFleet();
        fc.sim.prefixCache.evictPolicy = policy;
        const std::string plain = runFleet(fc);
        fc.sim.prefixCache.evictPolicy = tracedId(policy);
        Tracer::instance().clear();
        EXPECT_EQ(runFleet(fc), plain);
        EXPECT_GT(spansOf(SpanKind::Victim), 0);
    }
}
