/**
 * @file
 * Continuous-batching scheduler tests (Section II-C semantics).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sched/batcher.hh"
#include "sched/policy.hh"

namespace duplex
{
namespace
{

std::vector<Request>
makeRequests(int n, std::int64_t lin, std::int64_t lout,
             PicoSec arrival_step = 0)
{
    std::vector<Request> reqs;
    for (int i = 0; i < n; ++i) {
        Request r;
        r.id = i;
        r.inputLen = lin;
        r.outputLen = lout;
        r.arrival = arrival_step * i;
        reqs.push_back(r);
    }
    return reqs;
}

/** The paper's admission rule; stateless, so one instance serves
 *  every batcher in this file. */
SchedulingPolicy &
fcfs()
{
    static const std::unique_ptr<SchedulingPolicy> policy =
        makeSchedulingPolicy("fcfs");
    return *policy;
}

/** Every request @p b retired since its last drain, in retirement
 *  order: the whole run when the test never drained before. */
std::vector<Request>
drained(ContinuousBatcher &b)
{
    std::vector<Request> out;
    b.drainFinished(out);
    return out;
}

TEST(ContinuousBatcher, FirstStageIsMixed)
{
    BatcherConfig cfg;
    cfg.maxBatch = 4;
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(4, 128, 4), true), fcfs());
    const StageShape s = b.formStage(0);
    EXPECT_EQ(s.prefillLengths.size(), 4u);
    EXPECT_EQ(s.decodeContexts.size(), 0u);
    EXPECT_TRUE(s.isMixed());
    EXPECT_EQ(b.mixedStages(), 1);
}

TEST(ContinuousBatcher, PrefillProducesFirstToken)
{
    BatcherConfig cfg;
    cfg.maxBatch = 2;
    cfg.exactStageView = true; // pin the per-context slow path
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(2, 128, 4), true), fcfs());
    b.formStage(0);
    b.completeStage(1000);
    EXPECT_EQ(b.totalGenerated(), 2);
    const StageShape s2 = b.formStage(1000);
    // Second stage: both requests decode with context 129.
    ASSERT_EQ(s2.decodeContexts.size(), 2u);
    EXPECT_EQ(s2.decodeContexts[0], 129);
    EXPECT_FALSE(s2.isMixed());
}

TEST(ContinuousBatcher, RunsToCompletion)
{
    BatcherConfig cfg;
    cfg.maxBatch = 2;
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(2, 16, 3), true), fcfs());
    PicoSec now = 0;
    while (!b.allDone()) {
        b.formStage(now);
        now += 1000;
        b.completeStage(now);
    }
    const std::vector<Request> done = drained(b);
    EXPECT_EQ(done.size(), 2u);
    for (const auto &r : done) {
        EXPECT_EQ(r.generated, 3);
        EXPECT_EQ(r.tokenTimes.size(), 3u);
        EXPECT_GT(r.finished, r.firstToken);
    }
}

TEST(ContinuousBatcher, ClosedLoopRefillsSlots)
{
    BatcherConfig cfg;
    cfg.maxBatch = 2;
    // Four requests, two slots: the next request joins only after
    // one finishes.
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(4, 16, 2), true), fcfs());
    PicoSec now = 0;
    int mixed_after_start = 0;
    b.formStage(now);
    now += 100;
    b.completeStage(now);
    while (!b.allDone()) {
        const StageShape s = b.formStage(now);
        if (s.isMixed())
            ++mixed_after_start;
        now += 100;
        b.completeStage(now);
    }
    // Replacement prefills create later mixed stages.
    EXPECT_GT(mixed_after_start, 0);
    EXPECT_EQ(drained(b).size(), 4u);
}

TEST(ContinuousBatcher, StageTypeCounting)
{
    BatcherConfig cfg;
    cfg.maxBatch = 2;
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(2, 16, 4), true), fcfs());
    PicoSec now = 0;
    while (!b.allDone()) {
        b.formStage(now);
        now += 10;
        b.completeStage(now);
    }
    // One mixed admission stage, then three decoding-only stages.
    EXPECT_EQ(b.mixedStages(), 1);
    EXPECT_EQ(b.decodingOnlyStages(), 3);
}

TEST(ContinuousBatcher, KvCapacityBlocksAdmission)
{
    BatcherConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxKvTokens = 300;
    // Each prompt needs 128 tokens of KV; only two fit.
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(8, 128, 4), true), fcfs());
    const StageShape s = b.formStage(0);
    EXPECT_EQ(s.prefillLengths.size(), 2u);
}

TEST(ContinuousBatcher, OpenLoopHonorsArrivals)
{
    BatcherConfig cfg;
    cfg.maxBatch = 8;
    // Arrivals every 1 ms.
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(4, 16, 4, kPsPerMs), false),
        fcfs());
    const StageShape s0 = b.formStage(0);
    EXPECT_EQ(s0.prefillLengths.size(), 1u); // only id 0 arrived
    b.completeStage(100);
    EXPECT_EQ(b.nextArrival(), kPsPerMs);
    const StageShape s1 = b.formStage(2 * kPsPerMs);
    EXPECT_EQ(s1.prefillLengths.size(), 2u); // ids 1 and 2
}

TEST(ContinuousBatcher, OpenLoopT2ftIncludesQueueing)
{
    BatcherConfig cfg;
    cfg.maxBatch = 1;
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(2, 16, 1, 0), false), fcfs());
    // Both arrive at 0 but only one slot exists.
    b.formStage(0);
    b.completeStage(5000);
    b.formStage(5000);
    b.completeStage(9000);
    const std::vector<Request> done = drained(b);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].firstToken, 5000);
    // The queued request keeps its arrival of 0.
    EXPECT_EQ(done[1].arrival, 0);
    EXPECT_EQ(done[1].firstToken, 9000);
}

TEST(ContinuousBatcher, ClosedLoopArrivalIsAdmission)
{
    BatcherConfig cfg;
    cfg.maxBatch = 1;
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(2, 16, 1), true), fcfs());
    b.formStage(0);
    b.completeStage(5000);
    b.formStage(5000);
    b.completeStage(9000);
    // The second request was admitted at 5000, so T2FT is 4000.
    const std::vector<Request> done = drained(b);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1].arrival, 5000);
}

TEST(ContinuousBatcher, MaxBatchHonored)
{
    BatcherConfig cfg;
    cfg.maxBatch = 3;
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(10, 16, 8), true), fcfs());
    PicoSec now = 0;
    while (!b.allDone()) {
        const StageShape s = b.formStage(now);
        EXPECT_LE(s.decodeContexts.size() + s.prefillLengths.size(),
                  3u);
        now += 10;
        b.completeStage(now);
    }
}

TEST(ContinuousBatcher, StagePublishesValidAggregates)
{
    BatcherConfig cfg;
    cfg.maxBatch = 4;
    cfg.exactStageView = true; // compare agg against the vectors
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(8, 64, 4), true), fcfs());
    PicoSec now = 0;
    while (!b.allDone()) {
        const StageShape s = b.formStage(now);
        ASSERT_TRUE(s.aggValid);
        EXPECT_EQ(s.agg, aggregatesOf(s));
        now += 100;
        b.completeStage(now);
    }
}

TEST(ContinuousBatcher, IncrementalAggregatesSurviveChurn)
{
    // Mixed lifetimes force staggered admissions and retirements;
    // the incrementally maintained sums must match a recomputation
    // from the stage vectors at every stage.
    BatcherConfig cfg;
    cfg.maxBatch = 6;
    cfg.maxPrefillsPerStage = 2;
    cfg.exactStageView = true; // compare agg against the vectors
    std::vector<Request> reqs;
    for (int i = 0; i < 24; ++i) {
        Request r;
        r.id = i;
        r.inputLen = 16 + 13 * (i % 7);
        r.outputLen = 1 + i % 5; // some retire after one token
        reqs.push_back(r);
    }
    ContinuousBatcher b(cfg, ArrivalQueue(std::move(reqs), true),
                        fcfs());
    PicoSec now = 0;
    std::int64_t stages = 0;
    while (!b.allDone()) {
        const StageShape s = b.formStage(now);
        ASSERT_TRUE(s.aggValid);
        EXPECT_EQ(s.agg, aggregatesOf(s))
            << "aggregates diverged at stage " << stages;
        now += 50;
        b.completeStage(now);
        ++stages;
    }
    EXPECT_EQ(drained(b).size(), 24u);
    // Every request retired: the decode set must be empty again.
    EXPECT_EQ(b.activeDecodeAggregates(), StageAggregates{});
}

std::vector<Request>
churnRequests(int n)
{
    // Mixed lifetimes: staggered admissions and retirements.
    std::vector<Request> reqs;
    for (int i = 0; i < n; ++i) {
        Request r;
        r.id = i;
        r.inputLen = 16 + 13 * (i % 7);
        r.outputLen = 1 + i % 5;
        reqs.push_back(r);
    }
    return reqs;
}

TEST(ContinuousBatcher, AggregateOnlyViewMatchesExactView)
{
    // The default (fast) stage view publishes no per-context
    // vector; its aggregates, stage typing, admission decisions
    // and retirement stream must be identical to the opt-in exact
    // view at every stage — including under a tight KV cap, which
    // exercises the incremental lifetime-KV accounting against the
    // exact twin's admissions.
    BatcherConfig exact_cfg;
    exact_cfg.maxBatch = 6;
    exact_cfg.maxPrefillsPerStage = 2;
    exact_cfg.maxKvTokens = 400;
    exact_cfg.exactStageView = true;
    BatcherConfig fast_cfg = exact_cfg;
    fast_cfg.exactStageView = false;

    ContinuousBatcher exact(
        exact_cfg, ArrivalQueue(churnRequests(24), true), fcfs());
    ContinuousBatcher fast(
        fast_cfg, ArrivalQueue(churnRequests(24), true), fcfs());
    PicoSec now = 0;
    while (!exact.allDone()) {
        ASSERT_FALSE(fast.allDone());
        const StageShape se = exact.formStage(now);
        const StageShape sf = fast.formStage(now);
        ASSERT_TRUE(sf.aggValid);
        EXPECT_TRUE(sf.decodeContexts.empty());
        EXPECT_EQ(sf.agg, se.agg);
        EXPECT_EQ(sf.agg, aggregatesOf(se));
        EXPECT_EQ(sf.prefillLengths, se.prefillLengths);
        EXPECT_EQ(sf.decodeTokens(), se.decodeTokens());
        EXPECT_EQ(sf.totalTokens(), se.totalTokens());
        EXPECT_EQ(sf.contextTokens(), se.contextTokens());
        now += 50;
        exact.completeStage(now);
        fast.completeStage(now);
    }
    EXPECT_TRUE(fast.allDone());
    EXPECT_EQ(exact.mixedStages(), fast.mixedStages());
    EXPECT_EQ(exact.decodingOnlyStages(),
              fast.decodingOnlyStages());
    const std::vector<Request> exact_done = drained(exact);
    const std::vector<Request> fast_done = drained(fast);
    ASSERT_EQ(exact_done.size(), fast_done.size());
    for (std::size_t i = 0; i < exact_done.size(); ++i) {
        EXPECT_EQ(exact_done[i].id, fast_done[i].id);
        EXPECT_EQ(exact_done[i].finished, fast_done[i].finished);
    }
}

TEST(ContinuousBatcher, KvHeadroomMatchesWalkUnderChurn)
{
    // The incremental lifetime-KV sum must gate admission exactly
    // as the per-stage walk did. On this churn workload that
    // keeps resident context under the cap at every stage (the
    // admission rule itself is the seed's: within one stage,
    // earlier admissions count only their prompt, so pathological
    // multi-admit mixes may overshoot later — identically in both
    // implementations; the exact-view twin test pins the
    // admission decisions themselves).
    BatcherConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxKvTokens = 500;
    ContinuousBatcher b(cfg, ArrivalQueue(churnRequests(32), true),
                        fcfs());
    PicoSec now = 0;
    while (!b.allDone()) {
        const StageShape s = b.formStage(now);
        // Resident context (decode set + joining prompts) stays
        // under the cap at every stage.
        EXPECT_LE(s.contextTokens(), cfg.maxKvTokens);
        now += 50;
        b.completeStage(now);
    }
    EXPECT_EQ(drained(b).size(), 32u);
}

TEST(ContinuousBatcher, DrainEveryStageMatchesOneDrainAtTheEnd)
{
    // Draining every stage must see the same requests, in the same
    // retirement order, as one drain at the end of the run — and
    // leave nothing behind.
    BatcherConfig cfg;
    cfg.maxBatch = 4;
    ContinuousBatcher once(
        cfg, ArrivalQueue(churnRequests(16), true), fcfs());
    ContinuousBatcher streaming(
        cfg, ArrivalQueue(churnRequests(16), true), fcfs());
    std::vector<Request> drained_all;
    std::vector<Request> scratch;
    PicoSec now = 0;
    while (!once.allDone()) {
        once.formStage(now);
        streaming.formStage(now);
        now += 50;
        once.completeStage(now);
        streaming.completeStage(now);
        streaming.drainFinished(scratch);
        for (Request &r : scratch)
            drained_all.push_back(std::move(r));
    }
    EXPECT_TRUE(streaming.allDone());
    EXPECT_TRUE(drained(streaming).empty()); // fully drained
    const std::vector<Request> at_end = drained(once);
    ASSERT_EQ(drained_all.size(), at_end.size());
    EXPECT_EQ(at_end.size(), 16u);
    for (std::size_t i = 0; i < drained_all.size(); ++i) {
        const Request &a = drained_all[i];
        const Request &b = at_end[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.arrival, b.arrival);
        EXPECT_EQ(a.firstToken, b.firstToken);
        EXPECT_EQ(a.finished, b.finished);
        EXPECT_EQ(a.tokenTimes, b.tokenTimes);
    }
}

TEST(ContinuousBatcher, CompletionKeepsActiveAndRetirementOrder)
{
    // Retirements punch gaps into the middle of the batch; the
    // survivors must keep admission order (the exact view lists
    // their contexts in batch order, and prompts grow with the id),
    // and each stage's retirements must drain in admission order.
    const std::vector<std::int64_t> outputs = {3, 1, 4, 1, 5, 2, 6, 1};
    std::vector<Request> reqs;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        Request r;
        r.id = static_cast<std::int64_t>(i);
        r.inputLen = 100 + 10 * static_cast<std::int64_t>(i);
        r.outputLen = outputs[i];
        reqs.push_back(r);
    }
    BatcherConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxPrefillsPerStage = 8;
    cfg.exactStageView = true;
    ContinuousBatcher b(cfg, ArrivalQueue(reqs, true), fcfs());

    std::vector<std::int64_t> retired;
    std::vector<Request> drained;
    PicoSec now = 0;
    for (int stage = 1; !b.allDone(); ++stage) {
        const StageShape &s = b.formStage(now);
        ASSERT_GT(s.totalTokens(), 0);
        // Survivors of stage k are the ids with outputLen >= k, in
        // id order; every one has generated k - 1 tokens.
        std::vector<std::int64_t> expect;
        for (std::size_t i = 0; i < outputs.size(); ++i)
            if (stage > 1 && outputs[i] >= stage)
                expect.push_back(100 + 10 * static_cast<std::int64_t>(i) +
                                 stage - 1);
        EXPECT_EQ(s.decodeContexts, expect) << "stage " << stage;
        now += 1000;
        b.completeStage(now);
        b.drainFinished(drained);
        for (std::size_t i = 1; i < drained.size(); ++i)
            EXPECT_LT(drained[i - 1].id, drained[i].id);
        for (const Request &r : drained)
            retired.push_back(r.id);
    }
    EXPECT_EQ(retired,
              (std::vector<std::int64_t>{1, 3, 7, 5, 0, 2, 4, 6}));
}

TEST(ContinuousBatcher, ContextGrowsEachStage)
{
    BatcherConfig cfg;
    cfg.maxBatch = 1;
    cfg.exactStageView = true; // pin the per-context slow path
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(1, 100, 3), true), fcfs());
    PicoSec now = 0;
    b.formStage(now);
    b.completeStage(++now);
    const StageShape s1 = b.formStage(now);
    ASSERT_EQ(s1.decodeContexts.size(), 1u);
    EXPECT_EQ(s1.decodeContexts[0], 101);
    b.completeStage(++now);
    const StageShape s2 = b.formStage(now);
    EXPECT_EQ(s2.decodeContexts[0], 102);
}

TEST(ContinuousBatcher, StageLogStaysBoundedOnALongOpenLoop)
{
    // 20k open-loop requests with a long length tail: the stage log
    // must never hold more than max(kMinTrim, 2 x the longest live
    // decode span so far) entries, however long the run.
    WorkloadConfig w;
    w.meanInputLen = 128;
    w.meanOutputLen = 64;
    w.lengthCv = 0.5;
    w.qps = 40.0;
    BatcherConfig cfg;
    cfg.maxBatch = 32;
    ContinuousBatcher b(cfg, ArrivalQueue(w, 20000), fcfs());

    struct Span
    {
        std::int64_t first, last; //!< decode stage indices
    };
    std::vector<Span> spans;
    std::vector<std::size_t> sizes; // log size after each stage
    std::vector<Request> drained;
    PicoSec now = 0;
    while (!b.allDone()) {
        if (b.formStage(now).totalTokens() == 0) {
            now = idleAdvance(now, b.nextArrival());
            continue;
        }
        now += 10 * kPsPerMs;
        b.completeStage(now);
        const auto stage = static_cast<std::int64_t>(sizes.size());
        sizes.push_back(b.stageLog().size());
        b.drainFinished(drained);
        for (const Request &r : drained) {
            const auto decoded =
                static_cast<std::int64_t>(r.tokenTimes.size()) - 1;
            if (decoded > 0)
                spans.push_back({stage - decoded + 1, stage});
        }
    }
    // Every stage produced tokens: log index == stage index.
    ASSERT_EQ(b.stageLog().next(),
              static_cast<std::int64_t>(sizes.size()));

    std::vector<std::int64_t> live(sizes.size(), 0);
    for (const Span &s : spans)
        for (std::int64_t t = s.first; t <= s.last; ++t)
            live[static_cast<std::size_t>(t)] =
                std::max(live[static_cast<std::size_t>(t)],
                         t - s.first + 1);
    std::int64_t longest = 0;
    std::size_t peak = 0;
    for (std::size_t t = 0; t < sizes.size(); ++t) {
        longest = std::max(longest, live[t]);
        ASSERT_LE(sizes[t],
                  std::max(StageLog::kMinTrim,
                           2 * static_cast<std::size_t>(longest)))
            << "stage " << t;
        peak = std::max(peak, sizes[t]);
    }
    EXPECT_GT(sizes.size(), 20 * peak) << "the run never outgrew the log";
}

} // namespace
} // namespace duplex
