/**
 * @file
 * Scheduling-policy tests: registry round-trips, pinned fcfs
 * lifecycles, chunked-prefill semantics, the prefix-cache reclaim
 * rule, the preemption accounting invariant, and the
 * priority-class trace-CSV round-trip.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "kvcache/prefix_cache.hh"
#include "sched/batcher.hh"
#include "sched/policy.hh"
#include "sim/engine.hh"
#include "sim/presets.hh"
#include "workload/trace.hh"

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

TEST(PolicyRegistry, RoundTripsEveryStockPolicy)
{
    const std::vector<std::string> ids =
        registeredSchedulingPolicies();
    ASSERT_GE(ids.size(), 3u);
    for (const std::string &id : ids) {
        EXPECT_TRUE(
            SchedulingPolicyRegistry::instance().contains(id));
        const auto policy = makeSchedulingPolicy(id);
        ASSERT_NE(policy, nullptr) << id;
        EXPECT_EQ(policy->name(), id);
        EXPECT_FALSE(policy->describe().empty()) << id;
        EXPECT_FALSE(SchedulingPolicyRegistry::instance()
                         .summary(id)
                         .empty())
            << id;
    }
}

TEST(PolicyRegistry, UnknownPolicyIsFatal)
{
    EXPECT_EXIT({ makeSchedulingPolicy("no-such-policy"); },
                ::testing::ExitedWithCode(1),
                "unknown policy 'no-such-policy'");
}

TEST(Policy, TtftProtectWidensPrefillCapUnderBacklog)
{
    const auto policy = makeSchedulingPolicy("ttft-protect");
    SchedSnapshot snap;
    snap.maxBatch = 8;
    snap.maxPrefillsPerStage = 2;
    snap.queuedCount = 1; // no backlog: the normal cap holds
    EXPECT_EQ(policy->prefillBudget(snap), 2);
    snap.queuedCount = 5; // backlog: cap widens to the batch
    EXPECT_EQ(policy->prefillBudget(snap), 8);
}

using Lifecycle = std::tuple<int, PicoSec, PicoSec>;

/** Run @p b to completion, one formStage attempt every 1000 ps,
 *  and return (id, firstToken, finished) per retired request. */
std::vector<Lifecycle>
runToCompletion(ContinuousBatcher &b, PicoSec now = 0)
{
    int guard = 0;
    while (!b.allDone()) {
        if (++guard >= 10000) {
            ADD_FAILURE() << "batcher never drained";
            break;
        }
        const StageShape s = b.formStage(now);
        now += 1000;
        if (s.totalTokens() > 0)
            b.completeStage(now);
    }
    std::vector<Lifecycle> out;
    for (const Request &r : b.finished())
        out.emplace_back(r.id, r.firstToken, r.finished);
    return out;
}

BatcherConfig
pinnedFcfsConfig()
{
    BatcherConfig cfg;
    cfg.maxBatch = 3;
    cfg.maxPrefillsPerStage = 2;
    return cfg;
}

TEST(Policy, FcfsPinnedLifecyclesClosedLoop)
{
    const auto fcfs = makeSchedulingPolicy("fcfs");
    ContinuousBatcher b(pinnedFcfsConfig(),
                        ArrivalQueue(makeRequests(8, 64, 5), true),
                        *fcfs);
    const std::vector<Lifecycle> want = {
        {0, 1000, 5000},   {1, 1000, 5000},   {2, 2000, 6000},
        {3, 6000, 10000},  {4, 6000, 10000},  {5, 7000, 11000},
        {6, 11000, 15000}, {7, 11000, 15000}};
    EXPECT_EQ(runToCompletion(b), want);
}

TEST(Policy, FcfsPinnedLifecyclesOpenLoop)
{
    const auto fcfs = makeSchedulingPolicy("fcfs");
    ContinuousBatcher b(
        pinnedFcfsConfig(),
        ArrivalQueue(makeRequests(8, 64, 5, 1500), false), *fcfs);
    const std::vector<Lifecycle> want = {
        {0, 1000, 5000},   {1, 3000, 7000},   {2, 4000, 8000},
        {3, 6000, 10000},  {4, 8000, 12000},  {5, 9000, 13000},
        {6, 11000, 15000}, {7, 13000, 17000}};
    EXPECT_EQ(runToCompletion(b), want);
}

TEST(Policy, FcfsPinnedLifecyclesChunkedPrefill)
{
    // 600-token prompts in 256-token chunks: three stages each.
    BatcherConfig cfg = pinnedFcfsConfig();
    cfg.prefillChunkTokens = 256;
    const auto fcfs = makeSchedulingPolicy("fcfs");
    ContinuousBatcher b(
        cfg, ArrivalQueue(makeRequests(8, 600, 5, 1500), false),
        *fcfs);
    const std::vector<Lifecycle> want = {
        {0, 3000, 7000},   {1, 5000, 9000},   {2, 6000, 10000},
        {3, 10000, 14000}, {4, 12000, 16000}, {5, 13000, 17000},
        {6, 17000, 21000}, {7, 19000, 23000}};
    EXPECT_EQ(runToCompletion(b), want);
}

TEST(Policy, ChunkedPrefillSplitsPromptAcrossStages)
{
    BatcherConfig cfg;
    cfg.maxBatch = 1;
    cfg.prefillChunkTokens = 32;
    const auto fcfs = makeSchedulingPolicy("fcfs");
    ContinuousBatcher b(cfg, ArrivalQueue(makeRequests(1, 100, 2), true),
                        *fcfs);
    // 100-token prompt in 32-token chunks: 32, 32, 32, 4 — and the
    // first token appears only when the last chunk completes.
    const std::int64_t spans[] = {32, 32, 32, 4};
    PicoSec now = 0;
    for (std::int64_t span : spans) {
        const StageShape s = b.formStage(now);
        ASSERT_EQ(s.prefillLengths.size(), 1u);
        EXPECT_EQ(s.prefillLengths[0], span);
        EXPECT_EQ(s.agg.numDecode, 0);
        now += 1000;
        b.completeStage(now);
        EXPECT_EQ(b.totalGenerated(), span == 4 ? 1 : 0);
    }
    // Decode proceeds normally after the prompt completes.
    const StageShape s = b.formStage(now);
    EXPECT_EQ(s.prefillLengths.size(), 0u);
    EXPECT_EQ(s.agg.numDecode, 1);
    b.completeStage(now + 1000);
    EXPECT_EQ(b.finished().size(), 1u);
    EXPECT_EQ(b.finished()[0].firstToken, 4000);
    EXPECT_EQ(b.finished()[0].tokenTimes.size(), 2u);
}

TEST(Policy, ChunkedPrefillImprovesWorstTokenGap)
{
    // Long prompts under open-loop arrivals: whole-prompt prefills
    // stall running decodes, chunking bounds the stall. The worst
    // token gap must improve (the bench_policies effect, pinned
    // small here).
    SimConfig base;
    base.systemName = "gpu";
    base.model = mixtralConfig();
    base.maxBatch = 4;
    base.workload.meanInputLen = 2048;
    base.workload.meanOutputLen = 16;
    base.workload.qps = 4.0;
    base.numRequests = 24;
    base.warmupRequests = 0;
    base.maxStages = 100000;

    SimConfig chunked = base;
    chunked.prefillChunkTokens = 256;

    const SimResult whole = SimulationEngine(base).run();
    const SimResult split = SimulationEngine(chunked).run();
    ASSERT_GT(whole.metrics.tbtMs.count(), 0u);
    ASSERT_GT(split.metrics.tbtMs.count(), 0u);
    EXPECT_LT(split.metrics.tbtMs.max(),
              whole.metrics.tbtMs.max());
    // Same requests retire either way; chunking is a schedule
    // change, not an admission-control change.
    EXPECT_EQ(split.metrics.t2ftMs.count(),
              whole.metrics.t2ftMs.count());
}

TEST(Policy, PreemptionAccountingInvariantHolds)
{
    // Two class-0 decodes fill the batch; a class-1 arrival must
    // evict one (KV-aware victim selection), the victim restarts
    // from prefill, and everything still drains:
    // admissions == retirements + preemptions.
    BatcherConfig cfg;
    cfg.maxBatch = 2;
    const auto priority = makeSchedulingPolicy("priority");
    std::vector<Request> reqs = makeRequests(2, 16, 8);
    Request high;
    high.id = 2;
    high.inputLen = 16;
    high.outputLen = 8;
    high.arrival = 500;
    high.priorityClass = 1;
    reqs.push_back(high);
    ContinuousBatcher b(cfg, ArrivalQueue(std::move(reqs), false),
                        *priority);

    PicoSec now = 0;
    int guard = 0;
    while (!b.allDone()) {
        ASSERT_LT(++guard, 1000);
        const StageShape s = b.formStage(now);
        now += 1000;
        if (s.totalTokens() > 0)
            b.completeStage(now);
    }
    EXPECT_EQ(b.preemptions(), 1);
    EXPECT_GT(b.preemptedTokens(), 0);
    ASSERT_EQ(b.finished().size(), 3u);
    EXPECT_EQ(b.admissions(),
              static_cast<std::int64_t>(b.finished().size()) +
                  b.preemptions());
    int victims_restarted = 0;
    for (const Request &r : b.finished()) {
        EXPECT_EQ(r.generated, r.outputLen);
        if (r.retries == 1) {
            ++victims_restarted;
            EXPECT_EQ(r.priorityClass, 0);
        }
    }
    EXPECT_EQ(victims_restarted, 1);
}

/** A cache holding one @p tokens-token entry at one byte per
 *  token (the shared-prefix seed; session-less requests never
 *  probe it, so only reclaim() can remove it). */
PrefixCachePool
cacheHolding(std::int64_t tokens)
{
    PrefixCacheSpec spec;
    spec.budgetBytes = 100;
    spec.sharedPrefixTokens = tokens;
    return PrefixCachePool(spec, 1);
}

TEST(Policy, FullBatchWithoutVictimsLeavesCacheAlone)
{
    // One slot, 100 KV tokens, 60 of them cached: the first 20+10
    // request fits beside the cache (31 <= 40). The second then
    // meets a full batch; a policy that names no victims stops
    // admitting, and reclaiming the cache would admit nothing.
    for (const char *id : {"fcfs", "ttft-protect"}) {
        BatcherConfig cfg;
        cfg.maxBatch = 1;
        cfg.maxKvTokens = 100;
        PrefixCachePool pool = cacheHolding(60);
        const auto policy = makeSchedulingPolicy(id);
        ContinuousBatcher b(
            cfg, ArrivalQueue(makeRequests(2, 20, 10), false),
            *policy, &pool);
        PicoSec now = 0;
        for (std::size_t admitted : {1u, 0u}) {
            const StageShape s = b.formStage(now);
            EXPECT_EQ(s.prefillLengths.size(), admitted) << id;
            now += 1000;
            b.completeStage(now);
        }
        EXPECT_EQ(pool.residentTokens(), 60) << id;
        EXPECT_EQ(pool.metrics().evictions, 0) << id;
    }
}

TEST(Policy, PriorityReclaimsCacheBeforePreempting)
{
    // Class-0 decodes with lifetimes 50 and 70 fill two slots
    // beside an 80-token cache entry; a class-1 candidate with
    // lifetime 100 arrives. Its need is 120 + 100 + 2 + 1 = 223.
    // Against the 120 tokens the cache leaves it would take both
    // decodes; sized against the full 200 it is 23 tokens and one
    // slot short, so the cache goes and only the larger decode
    // (id 1) is evicted.
    BatcherConfig cfg;
    cfg.maxBatch = 2;
    cfg.maxKvTokens = 200;
    PrefixCachePool pool = cacheHolding(80);
    std::vector<Request> reqs = {makeRequests(1, 30, 20)[0],
                                 makeRequests(2, 40, 30)[1]};
    Request high = makeRequests(3, 60, 40)[2];
    high.arrival = 500;
    high.priorityClass = 1;
    reqs.push_back(high);
    const auto priority = makeSchedulingPolicy("priority");
    ContinuousBatcher b(cfg, ArrivalQueue(std::move(reqs), false),
                        *priority, &pool);

    b.formStage(0);
    b.completeStage(1000);
    EXPECT_EQ(b.activeCount(), 2u);
    EXPECT_EQ(pool.residentTokens(), 80);

    const StageShape s = b.formStage(1000);
    EXPECT_EQ(s.prefillLengths.size(), 1u);
    EXPECT_EQ(s.agg.numDecode, 1);
    EXPECT_EQ(b.preemptions(), 1);
    EXPECT_EQ(pool.residentTokens(), 0);
    EXPECT_EQ(pool.metrics().evictions, 1);
    b.completeStage(2000);

    const std::vector<Lifecycle> want = {
        {0, 1000, 20000}, {2, 2000, 41000}, {1, 21000, 50000}};
    EXPECT_EQ(runToCompletion(b, 2000), want);
    ASSERT_EQ(b.finished().size(), 3u);
    EXPECT_EQ(b.finished()[2].retries, 1);
}

TEST(PolicyTrace, PriorityClassRoundTrips)
{
    std::vector<Request> original = makeRequests(3, 128, 32, 1000);
    original[1].priorityClass = 1;
    original[2].priorityClass = 2;

    std::ostringstream out;
    writeTrace(out, original);
    // The format is positional: a priority column forces the
    // session column, written as -1 placeholders here.
    EXPECT_NE(out.str().find(",session_id,priority_class"),
              std::string::npos);

    std::istringstream in(out.str());
    const std::vector<Request> parsed = parseTrace(in);
    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed[i].priorityClass,
                  original[i].priorityClass);
        EXPECT_EQ(parsed[i].sessionId, -1);
        EXPECT_EQ(parsed[i].inputLen, original[i].inputLen);
    }
}

TEST(PolicyTrace, LegacyColumnCountsStayValid)
{
    // Three- and four-column traces predate priority classes and
    // must parse with priorityClass = 0.
    std::istringstream in("0.0,512,256\n"
                          "0.5,1024,128,3\n"
                          "1.0,64,16,-1,2\n");
    const std::vector<Request> reqs = parseTrace(in);
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[0].priorityClass, 0);
    EXPECT_EQ(reqs[0].sessionId, -1);
    EXPECT_EQ(reqs[1].priorityClass, 0);
    EXPECT_EQ(reqs[1].sessionId, 3);
    EXPECT_EQ(reqs[2].priorityClass, 2);
    EXPECT_EQ(reqs[2].sessionId, -1);
}

TEST(PolicyTrace, NegativePriorityClassIsFatal)
{
    std::istringstream in("0.0,512,256,-1,-2\n");
    EXPECT_EXIT({ parseTrace(in); },
                ::testing::ExitedWithCode(1),
                "priority_class must be >= 0");
}

TEST(PolicyTrace, TooManyColumnsIsFatal)
{
    std::istringstream in("0.0,512,256,-1,0,99\n");
    EXPECT_EXIT({ parseTrace(in); },
                ::testing::ExitedWithCode(1), "too many columns");
}

} // namespace
} // namespace duplex
