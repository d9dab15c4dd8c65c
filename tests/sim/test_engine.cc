/**
 * @file
 * SimulationEngine tests: observer callback ordering and counts,
 * the shipped drop-in observers, and golden tests pinning the
 * engine's SimResult on the Mixtral preset (gpu and duplex systems).
 */

#include <gtest/gtest.h>

#include "sim/engine.hh"
#include "sim/observers.hh"
#include "sim/registry.hh"

namespace duplex
{
namespace
{

SimConfig
goldenConfig(const std::string &system)
{
    SimConfig c;
    c.systemName = system;
    c.model = mixtralConfig();
    c.maxBatch = 16;
    c.workload.meanInputLen = 256;
    c.workload.meanOutputLen = 64;
    c.numRequests = 48;
    c.warmupRequests = 8;
    c.maxStages = 600;
    return c;
}

/** Records the full callback sequence for ordering assertions. */
class RecordingObserver : public SimObserver
{
  public:
    enum class Event
    {
        Begin,
        Stage,
        Retire,
        End
    };

    void onSimBegin(const ServingSystem &system,
                    const SimConfig &config) override
    {
        (void)config;
        systemName = system.name();
        events.push_back(Event::Begin);
    }

    void onStage(const StageObservation &obs) override
    {
        events.push_back(Event::Stage);
        stageIndexes.push_back(obs.index);
        EXPECT_GE(obs.end, obs.start);
        EXPECT_GT(obs.kvTokens, 0);
        lastStageEnd = obs.end;
    }

    void onRequestRetired(const Request &request,
                          PicoSec now) override
    {
        events.push_back(Event::Retire);
        EXPECT_TRUE(request.done());
        EXPECT_LE(request.finished, now);
        ++retired;
    }

    void onSimEnd(const SimResult &result) override
    {
        events.push_back(Event::End);
        finalTokens = result.generatedTokens;
    }

    std::vector<Event> events;
    std::vector<std::int64_t> stageIndexes;
    std::string systemName;
    std::int64_t retired = 0;
    std::int64_t finalTokens = 0;
    PicoSec lastStageEnd = 0;
};

std::int64_t
countEvents(const RecordingObserver &rec,
            RecordingObserver::Event kind)
{
    std::int64_t n = 0;
    for (auto e : rec.events)
        if (e == kind)
            ++n;
    return n;
}

TEST(Engine, GoldenGpuMatchesSeedRunSimulation)
{
    // Values captured from the seed implementation on this exact
    // configuration; the engine must
    // reproduce them bit-for-bit (time/token integers) and to
    // rounding (energy).
    const SimResult r =
        SimulationEngine(goldenConfig("gpu")).run();
    EXPECT_EQ(r.metrics.elapsed, 1688760707856LL);
    EXPECT_EQ(r.metrics.totalTokens, 2521);
    EXPECT_EQ(r.generatedTokens, 3137);
    EXPECT_EQ(r.peakBatch, 16);
    EXPECT_EQ(r.metrics.decodingOnlyStages, 210);
    EXPECT_EQ(r.metrics.mixedStages, 27);
    EXPECT_NEAR(r.totals.totalEnergyJ(), 769.36158265872291,
                1e-6 * 769.36158265872291);
    EXPECT_NEAR(r.metrics.tbtMs.percentile(50), 8.563581246,
                1e-6);
}

TEST(Engine, GoldenDuplexMatchesSeedRunSimulation)
{
    const SimResult r =
        SimulationEngine(goldenConfig("duplex")).run();
    EXPECT_EQ(r.metrics.elapsed, 800495559533LL);
    EXPECT_EQ(r.metrics.totalTokens, 2521);
    EXPECT_EQ(r.generatedTokens, 3137);
    EXPECT_EQ(r.peakBatch, 16);
    EXPECT_EQ(r.metrics.decodingOnlyStages, 210);
    EXPECT_EQ(r.metrics.mixedStages, 27);
    EXPECT_NEAR(r.totals.totalEnergyJ(), 551.21667480047654,
                1e-6 * 551.21667480047654);
    EXPECT_NEAR(r.metrics.tbtMs.percentile(50), 3.361203755,
                1e-6);
}

TEST(Engine, ObserverCallbackOrderingAndCounts)
{
    SimulationEngine engine(goldenConfig("gpu"));
    RecordingObserver rec;
    engine.addObserver(&rec);
    const SimResult r = engine.run();

    ASSERT_GE(rec.events.size(), 3u);
    EXPECT_EQ(rec.events.front(), RecordingObserver::Event::Begin);
    EXPECT_EQ(rec.events.back(), RecordingObserver::Event::End);
    EXPECT_EQ(countEvents(rec, RecordingObserver::Event::Begin), 1);
    EXPECT_EQ(countEvents(rec, RecordingObserver::Event::End), 1);

    // One onStage per executed stage, indexed 0..N-1 in order.
    const std::int64_t stages = r.metrics.decodingOnlyStages +
                                r.metrics.mixedStages;
    EXPECT_EQ(countEvents(rec, RecordingObserver::Event::Stage),
              stages);
    ASSERT_FALSE(rec.stageIndexes.empty());
    for (std::size_t i = 0; i < rec.stageIndexes.size(); ++i)
        EXPECT_EQ(rec.stageIndexes[i],
                  static_cast<std::int64_t>(i));

    // Every request retires exactly once (closed loop, all done).
    EXPECT_EQ(rec.retired, 48);
    EXPECT_EQ(countEvents(rec, RecordingObserver::Event::Retire),
              48);

    // Retires only ever follow a stage, never precede the first.
    bool seen_stage = false;
    for (auto e : rec.events) {
        if (e == RecordingObserver::Event::Stage)
            seen_stage = true;
        if (e == RecordingObserver::Event::Retire) {
            EXPECT_TRUE(seen_stage);
        }
    }

    EXPECT_EQ(rec.systemName, "GPU");
    EXPECT_EQ(rec.finalTokens, r.generatedTokens);
}

TEST(Engine, ObserversFireOnCustomLoopSystems)
{
    // The split system runs its own driver loop but must feed the
    // same observer stream.
    SimConfig c = goldenConfig("duplex-split");
    c.maxStages = 20000;
    SimulationEngine engine(c);
    RecordingObserver rec;
    engine.addObserver(&rec);
    const SimResult r = engine.run();

    EXPECT_EQ(rec.events.front(), RecordingObserver::Event::Begin);
    EXPECT_EQ(rec.events.back(), RecordingObserver::Event::End);
    EXPECT_GT(countEvents(rec, RecordingObserver::Event::Stage), 0);
    EXPECT_EQ(rec.retired, 48);
    EXPECT_EQ(rec.finalTokens, r.generatedTokens);
}

TEST(Engine, MultipleObserversAllReceiveCallbacks)
{
    SimulationEngine engine(goldenConfig("duplex"));
    RecordingObserver a;
    RecordingObserver b;
    engine.addObserver(&a);
    engine.addObserver(&b);
    engine.run();
    EXPECT_EQ(a.events.size(), b.events.size());
    EXPECT_GT(a.events.size(), 0u);
}

TEST(Engine, DropInObserversCollectMetrics)
{
    SimulationEngine engine(goldenConfig("gpu"));
    StageTimeHistogram hist;
    KvOccupancyTrace kv;
    engine.addObserver(&hist);
    engine.addObserver(&kv);
    const SimResult r = engine.run();

    const std::int64_t stages = r.metrics.decodingOnlyStages +
                                r.metrics.mixedStages;
    EXPECT_EQ(hist.stageMs().count(),
              static_cast<std::size_t>(stages));
    EXPECT_GT(hist.stageMs().percentile(99), 0.0);
    EXPECT_EQ(kv.points().size(),
              static_cast<std::size_t>(stages));
    EXPECT_GT(kv.peakKvTokens(), 0);
    // Occupancy never exceeds what the system can hold.
    const std::unique_ptr<ServingSystem> system =
        makeSystem("gpu", mixtralConfig());
    EXPECT_LE(kv.peakKvTokens(), system->maxKvTokens());
}

TEST(Engine, ExpertRoutingCountsHistogramMatchesRouting)
{
    // Every stage routes totalTokens x topK assignments per MoE
    // layer; the observer's run histogram must account for exactly
    // that, across every expert.
    SimConfig c = goldenConfig("duplex");
    SimulationEngine engine(c);
    ExpertRoutingCounts routing;

    class TokenCounter : public SimObserver
    {
      public:
        std::int64_t stageTokens = 0;
        void onStage(const StageObservation &obs) override
        {
            stageTokens += obs.shape.totalTokens();
        }
    } counter;

    engine.addObserver(&routing);
    engine.addObserver(&counter);
    engine.run();

    const ModelConfig m = c.model;
    ASSERT_EQ(routing.tokensPerExpert().size(),
              static_cast<std::size_t>(m.numExperts));
    EXPECT_EQ(routing.totalRouted(),
              counter.stageTokens * m.topK * m.numMoeLayers());
    for (auto tokens : routing.tokensPerExpert())
        EXPECT_GT(tokens, 0);
    // The paper-default uniform gate cannot be pathologically skewed
    // over a run this long.
    EXPECT_GE(routing.skew(), 1.0);
    EXPECT_LT(routing.skew(), 2.0);
}

TEST(Engine, ExpertRoutingCountsEmptyForDenseModels)
{
    SimConfig c = goldenConfig("gpu");
    c.model = llama3Config();
    c.numRequests = 8;
    c.maxStages = 120;
    SimulationEngine engine(c);
    ExpertRoutingCounts routing;
    engine.addObserver(&routing);
    engine.run();
    EXPECT_TRUE(routing.tokensPerExpert().empty());
    EXPECT_EQ(routing.totalRouted(), 0);
}

TEST(Engine, SloAttainmentBoundsAndGoodput)
{
    // A vacuous SLO admits every request; an impossible one (a
    // femtosecond, shorter than any stage) admits none — and
    // goodput follows the attaining set.
    SimConfig c = goldenConfig("gpu");
    SimulationEngine engine(c);
    SloAttainment lenient({1e9, 1e9});
    SloAttainment impossible({1e-12, 1e-12});
    engine.addObserver(&lenient);
    engine.addObserver(&impossible);
    const SimResult r = engine.run();

    EXPECT_EQ(lenient.totalRequests(), 48);
    EXPECT_EQ(lenient.attainedRequests(), 48);
    EXPECT_DOUBLE_EQ(lenient.attainment(), 1.0);
    EXPECT_DOUBLE_EQ(lenient.t2ftAttainment(), 1.0);
    EXPECT_DOUBLE_EQ(lenient.tbtAttainment(), 1.0);
    // Every token came from an attaining request, so goodput over
    // the retire span is within a stage of raw throughput.
    EXPECT_GT(lenient.goodputTokensPerSec(), 0.0);

    EXPECT_EQ(impossible.totalRequests(), 48);
    EXPECT_EQ(impossible.attainedRequests(), 0);
    EXPECT_DOUBLE_EQ(impossible.attainment(), 0.0);
    EXPECT_DOUBLE_EQ(impossible.goodputTokensPerSec(), 0.0);

    // The aggregate ServingMetrics view agrees at the extremes.
    EXPECT_DOUBLE_EQ(r.metrics.t2ftAttainment({1e9, 1e9}), 1.0);
    EXPECT_DOUBLE_EQ(r.metrics.tbtAttainment({0.0, 0.0}), 0.0);
}

TEST(Engine, SloAttainmentMonotoneInTheObjective)
{
    // Loosening an SLO can only admit more requests, and meeting
    // both objectives can only be rarer than meeting either one.
    SimConfig c = goldenConfig("duplex");
    SimulationEngine engine(c);
    // Thresholds near the median TBT split the population.
    SloAttainment strict({100.0, 3.0});
    SloAttainment loose({200.0, 5.0});
    engine.addObserver(&strict);
    engine.addObserver(&loose);
    engine.run();
    EXPECT_EQ(strict.totalRequests(), loose.totalRequests());
    EXPECT_GT(strict.totalRequests(), 0);
    EXPECT_LE(strict.t2ftAttainment(), loose.t2ftAttainment());
    EXPECT_LE(strict.tbtAttainment(), loose.tbtAttainment());
    EXPECT_LE(strict.attainment(), loose.attainment());
    for (const SloAttainment *a : {&strict, &loose}) {
        EXPECT_LE(a->attainment(), a->t2ftAttainment());
        EXPECT_LE(a->attainment(), a->tbtAttainment());
        EXPECT_LE(a->attainedRequests(), a->totalRequests());
    }
}

TEST(Engine, NonPositiveSloObjectiveIsFatal)
{
    // An objective <= 0 would report attainment 0.00 for any run.
    EXPECT_EXIT({ SloAttainment({1500.0, -1.0}); },
                ::testing::ExitedWithCode(1),
                "SLO objectives must be > 0 ms, got TTFT 1500.000, "
                "TBT -1.000");
    EXPECT_EXIT({ SloAttainment({0.0, 40.0}); },
                ::testing::ExitedWithCode(1),
                "SLO objectives must be > 0 ms");
}

TEST(Engine, StageCapBelowOneIsFatal)
{
    // Both loops: the batcher's and the split system's own.
    for (const char *system : {"gpu", "duplex-split"}) {
        for (std::int64_t cap : {0, -5}) {
            SimConfig c = goldenConfig(system);
            c.maxStages = cap;
            EXPECT_EXIT({ SimulationEngine(c).run(); },
                        ::testing::ExitedWithCode(1),
                        "stage cap must be >= 1, got " +
                            std::to_string(cap))
                << system;
        }
    }
}

TEST(Engine, StageCappedRunsAreFlagged)
{
    // Both loops: an open-loop run cut at ten stages leaves requests
    // queued or in flight and says so; a closed-loop run that drains
    // under its cap does not.
    for (const char *system : {"gpu", "duplex-split"}) {
        SimConfig open = goldenConfig(system);
        open.workload.qps = 2.0;
        open.maxStages = 10;
        const SimResult capped = SimulationEngine(open).run();
        EXPECT_TRUE(capped.stageCapped) << system;
        EXPECT_GT(capped.unfinishedRequests, 0) << system;

        const SimResult drained =
            SimulationEngine(goldenConfig(system)).run();
        EXPECT_FALSE(drained.stageCapped) << system;
        EXPECT_EQ(drained.unfinishedRequests, 0) << system;
    }
}

TEST(Engine, OpenLoopIdleAdvanceJumpsExactlyToArrival)
{
    // With Poisson arrivals and an idle batcher, the clock must
    // land exactly on the next arrival — the one-picosecond bump is
    // reserved for stalls where the clock would not otherwise move.
    SimConfig c = goldenConfig("gpu");
    c.workload.qps = 2.0; // open loop
    c.numRequests = 6;
    c.maxStages = 4000;

    // Reproduce the generator stream to learn the arrival times.
    RequestGenerator gen(c.workload);
    const std::vector<Request> requests = gen.take(c.numRequests);
    ASSERT_GT(requests.front().arrival, 0);

    class FirstStage : public SimObserver
    {
      public:
        PicoSec firstStart = -1;
        void onStage(const StageObservation &obs) override
        {
            if (firstStart < 0)
                firstStart = obs.start;
        }
    } first;

    SimulationEngine engine(c);
    engine.addObserver(&first);
    engine.run();
    EXPECT_EQ(first.firstStart, requests.front().arrival);
}

TEST(Engine, RunOnExistingInstanceMatchesRegistryRun)
{
    const SimConfig c = goldenConfig("duplex");
    const SimResult via_registry = SimulationEngine(c).run();
    SystemOptions opts;
    opts.seed = c.seed;
    const std::unique_ptr<ServingSystem> system =
        makeSystem("duplex", c.model, opts);
    const SimResult via_instance =
        SimulationEngine(c).run(*system);
    EXPECT_EQ(via_registry.metrics.elapsed,
              via_instance.metrics.elapsed);
    EXPECT_EQ(via_registry.metrics.totalTokens,
              via_instance.metrics.totalTokens);
}

} // namespace
} // namespace duplex
