/**
 * @file
 * Retirement-streaming property tests: the latency metrics a run
 * streams through MetricsAccumulator (MetricsMode::Streaming, the
 * default) must be bit-identical to collectMetrics over the
 * requests an observer captures from onRequestRetired, on closed
 * and open loops, for the engine's batcher loop, the split
 * system's custom loop and a faulted fleet — including the
 * warm-up-request exclusion edge cases. Also covers the Bounded
 * histogram mode's contract: exact counts/extremes, approximate
 * percentiles, empty SampleStats.
 */

#include <gtest/gtest.h>

#include <map>

#include "fleet/faults.hh"
#include "fleet/fleet.hh"
#include "sim/engine.hh"
#include "sim/observers.hh"

namespace duplex
{
namespace
{

SimConfig
baseConfig(const std::string &system)
{
    SimConfig c;
    c.systemName = system;
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
    EXPECT_EQ(a.sum(), b.sum()) << what;    // same fp add order
    EXPECT_EQ(a.mean(), b.mean()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_EQ(a.percentile(p), b.percentile(p))
            << what << " p" << p;
}

/** The latency samples of @p a and @p b, bit for bit. */
void
expectSameLatency(const ServingMetrics &a, const ServingMetrics &b)
{
    expectSameSamples(a.tbtMs, b.tbtMs, "tbt");
    expectSameSamples(a.t2ftMs, b.t2ftMs, "t2ft");
    expectSameSamples(a.e2eMs, b.e2eMs, "e2e");
}

/** Every retired request, in retirement order: the input of the
 *  collectMetrics reference. */
class RetiredCapture : public SimObserver
{
  public:
    std::vector<Request> retired;

    void onRequestRetired(const Request &r, PicoSec now) override
    {
        (void)now;
        retired.push_back(r);
    }
};

void
expectStreamingMatchesReference(SimConfig config)
{
    config.metricsMode = MetricsMode::Streaming;
    SimulationEngine engine(config);
    RetiredCapture capture;
    engine.addObserver(&capture);
    const SimResult streaming = engine.run();
    EXPECT_EQ(capture.retired.size(),
              static_cast<std::size_t>(config.numRequests));
    expectSameLatency(
        streaming.metrics,
        collectMetrics(capture.retired, static_cast<std::size_t>(
                                            config.warmupRequests)));
}

TEST(StreamingMetrics, EngineClosedLoopMatchesReference)
{
    expectStreamingMatchesReference(baseConfig("gpu"));
}

TEST(StreamingMetrics, EngineOpenLoopMatchesReference)
{
    SimConfig c = baseConfig("gpu");
    c.workload.qps = 4.0;
    expectStreamingMatchesReference(c);
}

TEST(StreamingMetrics, SplitClosedLoopMatchesReference)
{
    expectStreamingMatchesReference(baseConfig("duplex-split"));
}

TEST(StreamingMetrics, SplitOpenLoopMatchesReference)
{
    SimConfig c = baseConfig("duplex-split");
    c.workload.qps = 4.0;
    expectStreamingMatchesReference(c);
}

TEST(StreamingMetrics, ContendedSplitMatchesReference)
{
    // The contended link reorders decode admissions relative to
    // the free-copy model; retirement streaming must track it.
    SimConfig c = baseConfig("duplex-split-contended");
    c.workload.qps = 6.0;
    expectStreamingMatchesReference(c);
}

/** Every retired request per fleet instance, in retirement order. */
class FleetRetiredCapture : public FleetObserver
{
  public:
    std::map<int, std::vector<Request>> retired;

    void onRequestRetired(int instance, const Request &r,
                          PicoSec now) override
    {
        (void)now;
        retired[instance].push_back(r);
    }
};

TEST(StreamingMetrics, FaultedFleetMergeMatchesReference)
{
    // Each instance skips its own warm-up retirements; the fleet
    // merges the instances' samples in instance-id order. Crashes
    // move work between instances, so a request retires on an
    // instance other than the one it was first routed to.
    FleetConfig fc;
    fc.sim = baseConfig("gpu");
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 128;
    fc.instances = 2;
    fc.policy = "least-loaded";
    fc.faults.events =
        parseFaultList("crash@1.0:0:0.5;crash@2.5:1:0.5");

    FleetRetiredCapture capture;
    FleetDriver driver(fc);
    driver.addObserver(&capture);
    const FleetResult r = driver.run();
    EXPECT_EQ(r.crashes, 2);
    EXPECT_GT(r.retriesScheduled, 0);
    EXPECT_EQ(r.requestsRetired, fc.sim.numRequests);
    ASSERT_EQ(r.perInstance.size(), 2u);

    const auto skip = static_cast<std::size_t>(fc.sim.warmupRequests);
    ServingMetrics merged;
    for (std::size_t i = 0; i < r.perInstance.size(); ++i) {
        const std::vector<Request> &mine =
            capture.retired[static_cast<int>(i)];
        EXPECT_GT(mine.size(), skip) << "instance " << i;
        const ServingMetrics reference = collectMetrics(mine, skip);
        expectSameLatency(r.perInstance[i].metrics, reference);
        merged.tbtMs.merge(reference.tbtMs);
        merged.t2ftMs.merge(reference.t2ftMs);
        merged.e2eMs.merge(reference.e2eMs);
    }
    expectSameLatency(r.metrics, merged);
}

TEST(StreamingMetrics, WarmupExclusionEdges)
{
    // skip == 0 (nothing excluded), skip beyond the finished count
    // (everything excluded), and skip == count (exact boundary).
    for (int warmup : {0, 48, 1000}) {
        SimConfig c = baseConfig("gpu");
        c.warmupRequests = warmup;
        expectStreamingMatchesReference(c);
    }
    SimConfig c = baseConfig("gpu");
    c.warmupRequests = 1000; // > every retirement
    c.metricsMode = MetricsMode::Streaming;
    const SimResult r = SimulationEngine(c).run();
    EXPECT_EQ(r.metrics.t2ftMs.count(), 0u);
    EXPECT_EQ(r.metrics.tbtMs.count(), 0u);
    EXPECT_GT(r.generatedTokens, 0);
}

TEST(StreamingMetrics, ObserverStreamIdenticalAcrossModes)
{
    // The retirement order is part of the observer contract: every
    // metrics mode must fire the same onRequestRetired sequence.
    class RetireLog : public SimObserver
    {
      public:
        std::vector<std::pair<int, PicoSec>> log;
        void onRequestRetired(const Request &r,
                              PicoSec now) override
        {
            log.push_back({r.id, now});
        }
    };

    SimConfig c = baseConfig("gpu");
    c.metricsMode = MetricsMode::Streaming;
    SimulationEngine streaming(c);
    RetireLog a;
    streaming.addObserver(&a);
    streaming.run();

    c.metricsMode = MetricsMode::Bounded;
    SimulationEngine bounded(c);
    RetireLog b;
    bounded.addObserver(&b);
    bounded.run();

    EXPECT_EQ(a.log, b.log);
    EXPECT_EQ(a.log.size(), 48u);
}

TEST(StreamingMetrics, BoundedModeApproximatesExact)
{
    SimConfig c = baseConfig("gpu");
    c.metricsMode = MetricsMode::Streaming;
    const SimResult exact = SimulationEngine(c).run();

    c.metricsMode = MetricsMode::Bounded;
    c.boundedLatency = {1000.0, 4096}; // sub-ms bins up to 1 s
    const SimResult bounded = SimulationEngine(c).run();

    // Throughput accounting is exact in every mode.
    EXPECT_EQ(bounded.metrics.elapsed, exact.metrics.elapsed);
    EXPECT_EQ(bounded.metrics.totalTokens,
              exact.metrics.totalTokens);
    // Latency SampleStats stay empty; the histograms carry the
    // distribution with exact counts/extremes and bin-resolution
    // percentiles.
    EXPECT_EQ(bounded.metrics.tbtMs.count(), 0u);
    ASSERT_NE(bounded.boundedLatency, nullptr);
    const BoundedLatencyMetrics &h = *bounded.boundedLatency;
    EXPECT_EQ(h.tbtMs.count(), exact.metrics.tbtMs.count());
    EXPECT_EQ(h.t2ftMs.count(), exact.metrics.t2ftMs.count());
    EXPECT_EQ(h.e2eMs.count(), exact.metrics.e2eMs.count());
    EXPECT_EQ(h.tbtMs.min(), exact.metrics.tbtMs.min());
    EXPECT_EQ(h.tbtMs.max(), exact.metrics.tbtMs.max());
    const double bin = 1000.0 / 4096;
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_NEAR(h.tbtMs.percentile(p),
                    exact.metrics.tbtMs.percentile(p), bin)
            << "p" << p;
    // Worst-gap per request: one sample per multi-token request
    // (at most the 40 non-warm-up retirements).
    EXPECT_GT(h.worstGapMs.count(), 0u);
    EXPECT_LE(h.worstGapMs.count(), 40u);
    EXPECT_GE(h.worstGapMs.min(), exact.metrics.tbtMs.min());
    EXPECT_EQ(h.worstGapMs.max(), exact.metrics.tbtMs.max());
    // Streaming runs carry no histograms.
    EXPECT_EQ(exact.boundedLatency, nullptr);
}

TEST(StreamingMetrics, SplitBoundedModeWorks)
{
    SimConfig c = baseConfig("duplex-split");
    c.metricsMode = MetricsMode::Bounded;
    const SimResult r = SimulationEngine(c).run();
    ASSERT_NE(r.boundedLatency, nullptr);
    EXPECT_EQ(r.boundedLatency->e2eMs.count(), 40u);
    EXPECT_GT(r.boundedLatency->tbtMs.percentile(50), 0.0);
    EXPECT_EQ(r.metrics.tbtMs.count(), 0u);
}

} // namespace
} // namespace duplex
