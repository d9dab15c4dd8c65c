/**
 * @file
 * Token-time oracle: every retired request's tokenTimes must be its
 * first token followed by the end times of consecutive stages of
 * the loop that decoded it — recorded here independently, from the
 * observers' stage callbacks, not from the loop's StageLog. Runs
 * over chunked prefill, priority preemption, sessions with a prefix
 * cache, a fleet with crashes and retries and the split loop; and
 * the streamed latency metrics must be the ones collectMetrics
 * computes from the token times the observers saw.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string_view>
#include <vector>

#include "fleet/faults.hh"
#include "fleet/fleet.hh"
#include "sim/engine.hh"

namespace duplex
{
namespace
{

/** Stage ends per loop, and the check every retirement must pass. */
struct TokenTimeOracle
{
    /** Loop id -> end time of each of its stages, in order. */
    std::map<int, std::vector<PicoSec>> ends;
    /** Every retired request, in retirement order. */
    std::vector<Request> retired;

    void stage(int loop, PicoSec end) { ends[loop].push_back(end); }

    /**
     * @p first_loop ran the stage that produced r's first token;
     * @p tail_loop ran its decode stages. In one loop the first
     * decode stage is the one right after the first token's.
     */
    void check(const Request &r, int first_loop, int tail_loop)
    {
        retired.push_back(r);
        const std::vector<PicoSec> &t = r.tokenTimes;
        ASSERT_EQ(static_cast<std::int64_t>(t.size()), r.outputLen)
            << "request " << r.id;
        EXPECT_EQ(r.generated, r.outputLen) << "request " << r.id;
        EXPECT_EQ(t.front(), r.firstToken) << "request " << r.id;
        EXPECT_EQ(t.back(), r.finished) << "request " << r.id;

        const std::vector<PicoSec> &first = ends[first_loop];
        const auto at =
            std::find(first.begin(), first.end(), r.firstToken);
        ASSERT_NE(at, first.end())
            << "request " << r.id << ": first token at no stage end";
        if (t.size() == 1)
            return;
        const std::vector<PicoSec> &tail = ends[tail_loop];
        std::size_t from = 0;
        if (first_loop == tail_loop) {
            from = static_cast<std::size_t>(at - first.begin()) + 1;
        } else {
            const auto start =
                std::find(tail.begin(), tail.end(), t[1]);
            ASSERT_NE(start, tail.end()) << "request " << r.id;
            from = static_cast<std::size_t>(start - tail.begin());
        }
        ASSERT_LE(from + t.size() - 1, tail.size())
            << "request " << r.id;
        for (std::size_t i = 1; i < t.size(); ++i)
            ASSERT_EQ(t[i], tail[from + i - 1])
                << "request " << r.id << " token " << i;
    }
};

/** The oracle on an engine run, or on the split loop's two groups
 *  (prefill stages as loop 1, decode stages as loop 0). */
class EngineOracle : public SimObserver
{
  public:
    explicit EngineOracle(TokenTimeOracle &oracle) : oracle_(oracle) {}

    void onStage(const StageObservation &obs) override
    {
        const auto &groups = obs.groupBreakdown();
        const bool prefill_group =
            !groups.empty() &&
            std::string_view(groups.front().group) == "prefill";
        oracle_.stage(prefill_group ? 1 : 0, obs.end);
        split_ = split_ || !groups.empty();
    }

    void onRequestRetired(const Request &r, PicoSec now) override
    {
        (void)now;
        oracle_.check(r, split_ ? 1 : 0, 0);
    }

  private:
    TokenTimeOracle &oracle_;
    bool split_ = false;
};

/** The oracle on a fleet: one loop per instance. */
class FleetOracle : public FleetObserver
{
  public:
    explicit FleetOracle(TokenTimeOracle &oracle) : oracle_(oracle) {}

    void onStage(int instance, const StageObservation &obs) override
    {
        oracle_.stage(instance, obs.end);
    }

    void onRequestRetired(int instance, const Request &r,
                          PicoSec now) override
    {
        (void)now;
        oracle_.check(r, instance, instance);
    }

  private:
    TokenTimeOracle &oracle_;
};

SimConfig
baseConfig()
{
    SimConfig c;
    c.systemName = "gpu";
    c.model = mixtralConfig();
    c.maxBatch = 16;
    c.workload.meanInputLen = 256;
    c.workload.meanOutputLen = 64;
    c.workload.qps = 8.0;
    c.numRequests = 96;
    c.maxStages = 200000;
    return c;
}

/** Run @p c through the engine under the oracle. */
SimResult
runChecked(const SimConfig &c, TokenTimeOracle &oracle)
{
    EngineOracle observer(oracle);
    SimulationEngine engine(c);
    engine.addObserver(&observer);
    const SimResult r = engine.run();
    EXPECT_EQ(r.unfinishedRequests, 0);
    EXPECT_EQ(oracle.retired.size(),
              static_cast<std::size_t>(c.numRequests));
    return r;
}

TEST(TokenTimes, ChunkedPrefill)
{
    SimConfig c = baseConfig();
    c.prefillChunkTokens = 64; // four chunks per mean prompt
    TokenTimeOracle oracle;
    runChecked(c, oracle);
}

TEST(TokenTimes, PriorityPreemptionRestartsTheLog)
{
    SimConfig c = baseConfig();
    c.schedPolicy = "priority";
    c.workload.priorityFrac = 0.3;
    c.workload.qps = 24.0;
    c.maxBatch = 8;
    c.prefillChunkTokens = 128;
    TokenTimeOracle oracle;
    const SimResult r = runChecked(c, oracle);
    EXPECT_GT(r.preemptions, 0)
        << "no preemption: the restart path went unchecked";
}

TEST(TokenTimes, SessionsWithPrefixCache)
{
    SimConfig c = baseConfig();
    c.workloadName = "session";
    c.workload.qps = 4.0;
    c.workload.meanInputLen = 192;
    c.workload.meanOutputLen = 48;
    c.workload.sessionTurns = 4;
    c.workload.sharedPrefixTokens = 96;
    c.workload.meanThinkSec = 0.1;
    c.prefixCache.budgetBytes = 512ll << 20;
    c.prefixCache.evictPolicy = "lru";
    TokenTimeOracle oracle;
    const SimResult r = runChecked(c, oracle);
    EXPECT_GT(r.prefixCache.hits, 0);
}

TEST(TokenTimes, SplitLoop)
{
    SimConfig c = baseConfig();
    c.systemName = "duplex-split";
    TokenTimeOracle oracle;
    runChecked(c, oracle);
}

TEST(TokenTimes, FleetWithCrashesAndRetries)
{
    FleetConfig fc;
    fc.sim = baseConfig();
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 128;
    fc.instances = 2;
    fc.policy = "least-loaded";
    fc.faults.events =
        parseFaultList("crash@1.0:0:0.5;crash@2.5:1:0.5");

    TokenTimeOracle oracle;
    FleetOracle observer(oracle);
    FleetDriver driver(fc);
    driver.addObserver(&observer);
    const FleetResult r = driver.run();
    EXPECT_EQ(r.crashes, 2);
    EXPECT_GT(r.retriesScheduled, 0)
        << "no retry: the cross-instance restart went unchecked";
    EXPECT_EQ(r.requestsRetired, fc.sim.numRequests);
    EXPECT_EQ(oracle.retired.size(),
              static_cast<std::size_t>(fc.sim.numRequests));
}

TEST(TokenTimes, StreamedMetricsMatchObservedTokenTimes)
{
    for (const char *system : {"gpu", "duplex-split"}) {
        SimConfig c = baseConfig();
        c.systemName = system;
        c.prefillChunkTokens = 128;
        TokenTimeOracle oracle;
        const SimResult r = runChecked(c, oracle);
        const ServingMetrics reference = collectMetrics(
            oracle.retired,
            static_cast<std::size_t>(c.warmupRequests));
        const auto same = [&](const SampleStats &streamed,
                              const SampleStats &want,
                              const char *what) {
            EXPECT_EQ(streamed.count(), want.count())
                << system << " " << what;
            EXPECT_EQ(streamed.sum(), want.sum())
                << system << " " << what;
            EXPECT_EQ(streamed.max(), want.max())
                << system << " " << what;
        };
        same(r.metrics.tbtMs, reference.tbtMs, "tbt");
        same(r.metrics.t2ftMs, reference.t2ftMs, "t2ft");
        same(r.metrics.e2eMs, reference.e2eMs, "e2e");
    }
}

} // namespace
} // namespace duplex
