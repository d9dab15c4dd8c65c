/**
 * @file
 * Expert-selection tests: uniform gates (the paper's default) and
 * the skewed gates of Section VIII-B.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "sim/sweep.hh"
#include "workload/experts.hh"

namespace duplex
{
namespace
{

TEST(ExpertSelector, HistogramSumsToTokensTimesTopK)
{
    ExpertSelector sel(8, 2);
    Rng rng(5);
    const auto hist = sel.sample(rng, 100);
    EXPECT_EQ(std::accumulate(hist.begin(), hist.end(),
                              std::int64_t{0}),
              200);
}

TEST(ExpertSelector, NoExpertExceedsTokens)
{
    ExpertSelector sel(8, 2);
    Rng rng(5);
    const auto hist = sel.sample(rng, 50);
    for (auto h : hist)
        EXPECT_LE(h, 50); // top-k experts are distinct per token
}

TEST(ExpertSelector, UniformGateBalanced)
{
    ExpertSelector sel(64, 2);
    Rng rng(7);
    const auto hist = sel.sample(rng, 64000);
    const double expected = 64000.0 * 2 / 64;
    for (auto h : hist)
        EXPECT_NEAR(static_cast<double>(h), expected,
                    expected * 0.15);
}

TEST(ExpertSelector, ZeroTokensZeroHistogram)
{
    ExpertSelector sel(8, 2);
    Rng rng(5);
    const auto hist = sel.sample(rng, 0);
    for (auto h : hist)
        EXPECT_EQ(h, 0);
}

TEST(ExpertSelector, SmallBatchLeavesColdExperts)
{
    // GLaM at batch 32: 64 selections over 64 experts leave many
    // experts unused — the effect expert co-processing exploits.
    ExpertSelector sel(64, 2);
    Rng rng(11);
    const auto hist = sel.sample(rng, 32);
    int cold = 0;
    for (auto h : hist)
        if (h == 0)
            ++cold;
    EXPECT_GT(cold, 10);
}

TEST(ExpertSelector, ZipfGateSkewed)
{
    ExpertSelector uniform(8, 2, GatePolicy::Uniform);
    ExpertSelector zipf(8, 2, GatePolicy::Zipf, 1.5);
    Rng rng_u(13);
    Rng rng_z(13);
    const auto hu = uniform.sample(rng_u, 20000);
    const auto hz = zipf.sample(rng_z, 20000);
    // The hottest Zipf expert processes far more than the uniform
    // share; the coldest far fewer.
    const auto hot = *std::max_element(hz.begin(), hz.end());
    const auto cold = *std::min_element(hz.begin(), hz.end());
    const auto uniform_hot = *std::max_element(hu.begin(), hu.end());
    EXPECT_GT(hot, uniform_hot * 1.3);
    EXPECT_LT(cold, hot / 3);
}

TEST(ExpertSelector, ZipfStillSumsCorrectly)
{
    ExpertSelector zipf(8, 2, GatePolicy::Zipf, 1.0);
    Rng rng(17);
    const auto hist = zipf.sample(rng, 500);
    EXPECT_EQ(std::accumulate(hist.begin(), hist.end(),
                              std::int64_t{0}),
              1000);
    for (auto h : hist)
        EXPECT_LE(h, 500);
}

TEST(ExpertSelector, DeterministicGivenRngState)
{
    ExpertSelector sel(8, 2);
    Rng a(21);
    Rng b(21);
    EXPECT_EQ(sel.sample(a, 100), sel.sample(b, 100));
}

/** Expert counts around the specialised top-2 kernels (8, 64). */
constexpr int kTop2Experts[] = {2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 128};
constexpr std::int64_t kTop2Tokens[] = {0, 1, 2, 3, 255, 256, 4097};

/**
 * kTop2Tokens plus, for the lane kernels of 8 and 64 experts: the
 * crossover less one, the crossover and the next one, moe-longrun's
 * decode and mixed stages, and counts past the 255-row flush of the
 * byte counters.
 */
std::vector<std::int64_t>
top2Tokens()
{
    std::vector<std::int64_t> tokens(std::begin(kTop2Tokens),
                                     std::end(kTop2Tokens));
    for (int n : {8, 64}) {
        const std::int64_t crossover = ExpertSelector::laneMinTokens(n);
        for (std::int64_t t = crossover - 1; t <= crossover + 1; ++t)
            tokens.push_back(t);
    }
    for (std::int64_t t : {164, 511, 830, 8192 + 5, 65536 + 3})
        tokens.push_back(t);
    return tokens;
}

/** Both generators stand at the same 256-bit state. */
::testing::AssertionResult
sameState(const Rng &fast, const Rng &ref)
{
    if (std::equal(fast.state(), fast.state() + 4, ref.state()))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "generator states differ";
}

TEST(ExpertSelector, ReportsWhichKernelRan)
{
    // One line in the test log: did this host run the lane path, and
    // with a helper thread or without?
    if (Rng::laneWidth() == 8)
        std::printf("[ kernel   ] uniform top-2: eight layers per walk "
                    "on 8 AVX-512 lanes from %lld tokens (8 experts) "
                    "and %lld (64 experts); 8 experts in two groups "
                    "of eight with %d helper thread from %lld\n",
                    static_cast<long long>(
                        ExpertSelector::laneMinTokens(8)),
                    static_cast<long long>(
                        ExpertSelector::laneMinTokens(64)),
                    ExpertSelector::drawHelpers(),
                    static_cast<long long>(
                        ExpertSelector::groupMinTokens(8)));
    else
        std::printf("[ kernel   ] uniform top-2: serial kernels only "
                    "(no AVX-512F); the lane path is untested here\n");
    EXPECT_GT(ExpertSelector::laneMinTokens(8), 0);
    EXPECT_GT(ExpertSelector::laneMinTokens(64), 0);
    EXPECT_EQ(ExpertSelector::laneMinTokens(16), 0);
    EXPECT_GE(ExpertSelector::groupMinTokens(8),
              ExpertSelector::laneMinTokens(8));
    EXPECT_EQ(ExpertSelector::groupMinTokens(64), 0);
    EXPECT_EQ(ExpertSelector::groupMinTokens(16), 0);
    EXPECT_GE(ExpertSelector::drawHelpers(), 0);
    EXPECT_LE(ExpertSelector::drawHelpers(), 1);
    if (Rng::laneWidth() != 8) {
        EXPECT_EQ(ExpertSelector::drawHelpers(), 0);
    }
}

TEST(ExpertSelector, Top2KernelsMatchPerTokenReference)
{
    for (int n : kTop2Experts) {
        const ExpertSelector sel(n, 2);
        for (std::int64_t tokens : top2Tokens()) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " tokens=" << tokens);
            Rng fast(1000 + n);
            Rng ref(1000 + n);
            std::vector<std::int64_t> hist{-1};
            sel.sampleInto(fast, tokens, hist);
            EXPECT_EQ(hist, sel.sampleReference(ref, tokens));
            EXPECT_EQ(fast.next(), ref.next());
        }
    }
}

TEST(ExpertSelector, ConsecutiveLayersMatchPerTokenReference)
{
    // Runs of L layers of one stage on one stream: the lookahead
    // serves all but the first of every 8 or 16 (one or two groups
    // of eight, the 64-expert gate one), and each must be the layer
    // the per-token loop draws, with the generator where it leaves
    // it after every call. The token counts straddle the crossovers,
    // and the runs end inside, at and just past a full set of groups.
    for (int n : {8, 64}) {
        const ExpertSelector sel(n, 2);
        std::vector<std::int64_t> counts = {1, 7, 8, 71, 164, 191, 192,
                                            830, 4099};
        if (n == 8) {
            counts.push_back(ExpertSelector::groupMinTokens(n) - 1);
            counts.push_back(ExpertSelector::groupMinTokens(n));
        }
        for (std::int64_t tokens : counts) {
            for (int layers :
                 {1, 2, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 64}) {
                SCOPED_TRACE(::testing::Message()
                             << "n=" << n << " tokens=" << tokens
                             << " layers=" << layers);
                Rng fast(tokens * 131 + layers);
                Rng ref = fast;
                std::vector<std::int64_t> hist;
                for (int layer = 0; layer < layers; ++layer) {
                    sel.sampleInto(fast, tokens, hist);
                    ASSERT_EQ(hist, sel.sampleReference(ref, tokens))
                        << "layer " << layer;
                    ASSERT_TRUE(sameState(fast, ref)) << "layer " << layer;
                }
            }
        }
    }
}

TEST(ExpertSelector, LookaheadMissesWhenTheStreamMoves)
{
    // Each case leaves the stream somewhere other than where the
    // lookahead's next layer starts; the next call must draw afresh.
    const std::int64_t t = 830;
    for (int n : {8, 64}) {
        const ExpertSelector sel(n, 2);
        SCOPED_TRACE(::testing::Message() << "n=" << n);
        Rng fast(5 + n);
        Rng ref = fast;
        std::vector<std::int64_t> hist;
        auto layer = [&](std::int64_t tokens) {
            sel.sampleInto(fast, tokens, hist);
            EXPECT_EQ(hist, sel.sampleReference(ref, tokens));
            EXPECT_TRUE(sameState(fast, ref));
        };
        // One next() between two layers.
        layer(t);
        EXPECT_EQ(fast.next(), ref.next());
        layer(t);
        layer(t);
        // The token count changes mid-run, and changes back.
        layer(t + 1);
        layer(t);
        layer(t);
    }
}

TEST(ExpertSelector, LookaheadMissesWhenTheGateAlternates)
{
    // An 8-expert and a 64-expert gate on one stream: each draw
    // replaces the other's lookahead, so every call misses.
    const ExpertSelector mixtral(8, 2);
    const ExpertSelector glam(64, 2);
    Rng fast(17);
    Rng ref = fast;
    std::vector<std::int64_t> hist;
    for (int layer = 0; layer < 12; ++layer) {
        const ExpertSelector &sel = layer % 2 ? glam : mixtral;
        SCOPED_TRACE(::testing::Message() << "layer=" << layer);
        sel.sampleInto(fast, 830, hist);
        ASSERT_EQ(hist, sel.sampleReference(ref, 830));
        ASSERT_TRUE(sameState(fast, ref));
    }
}

TEST(ExpertSelector, LookaheadServesACopyAtTheSameState)
{
    // A copy of the generator at the same state may take the next
    // layer (it is the same layer); the original, one layer behind
    // the lookahead then, draws afresh and gets the same layer.
    const ExpertSelector sel(8, 2);
    Rng original(23);
    Rng ref = original;
    std::vector<std::int64_t> hist;
    sel.sampleInto(original, 830, hist);
    ASSERT_EQ(hist, sel.sampleReference(ref, 830));
    Rng copy = original;
    const std::vector<std::int64_t> layer1 = sel.sampleReference(ref, 830);
    sel.sampleInto(copy, 830, hist);
    EXPECT_EQ(hist, layer1);
    EXPECT_TRUE(sameState(copy, ref));
    sel.sampleInto(original, 830, hist);
    EXPECT_EQ(hist, layer1);
    EXPECT_TRUE(sameState(original, ref));
}

/**
 * 32-layer stages on a stream of @p seed, alternating two token
 * counts as moe-longrun does once @p go is set; false on the first
 * layer that differs from the per-token loop or leaves the generator
 * elsewhere.
 */
bool
drawStages(int n, std::uint64_t seed, int stages,
           const std::atomic<bool> &go)
{
    const ExpertSelector sel(n, 2);
    Rng fast(seed);
    Rng ref = fast;
    std::vector<std::int64_t> hist;
    while (!go.load())
        std::this_thread::yield();
    for (int stage = 0; stage < stages; ++stage) {
        const std::int64_t tokens = 164 + 666 * (stage % 2);
        for (int layer = 0; layer < 32; ++layer) {
            sel.sampleInto(fast, tokens, hist);
            if (hist != sel.sampleReference(ref, tokens) ||
                !sameState(fast, ref))
                return false;
        }
    }
    return true;
}

TEST(ExpertSelector, LookaheadIsPerThread)
{
    // Two threads draw 32-layer stages at once, on streams of their
    // own. Neither is a sweep worker, so with 8 experts both ask for
    // the helper thread, and while one holds it the other finds it
    // busy and draws its groups alone. Each checks every layer.
    for (int n : {8, 64}) {
        std::atomic<bool> go{false};
        bool ok_a = false;
        bool ok_b = false;
        std::thread a([&] { ok_a = drawStages(n, 101, 48, go); });
        std::thread b([&] { ok_b = drawStages(n, 202, 48, go); });
        go = true;
        a.join();
        b.join();
        EXPECT_TRUE(ok_a) << "n=" << n;
        EXPECT_TRUE(ok_b) << "n=" << n;
    }
}

TEST(ExpertSelector, LateHelperChangesNoDraw)
{
    // A busy thread on every CPU: the helper is often descheduled,
    // so the caller draws group 1 itself, before the helper starts it
    // or after waiting for it. Whoever draws it, every layer must be
    // the per-token loop's.
    std::atomic<bool> stop{false};
    std::vector<std::thread> busy;
    const unsigned cpus =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    for (unsigned i = 0; i < cpus; ++i)
        busy.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
            }
        });
    const std::atomic<bool> go{true};
    const bool ok = drawStages(8, 404, 64, go);
    stop = true;
    for (std::thread &t : busy)
        t.join();
    EXPECT_TRUE(ok);
}

TEST(ExpertSelector, SweepWorkersDrawAlone)
{
    // Inside SweepRunner's tasks no draw may use the helpers: a sweep
    // runs whole simulations in parallel already. The calling thread
    // keeps them.
    const int helpers = ExpertSelector::drawHelpers();
    std::vector<int> seen(4, -1);
    std::vector<char> ok(4, 0);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 4; ++i)
        tasks.push_back([&, i] {
            seen[i] = ExpertSelector::drawHelpers();
            const std::atomic<bool> go{true};
            ok[i] = drawStages(8, 300 + i, 4, go);
        });
    SweepRunner(2).runTasks(tasks);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(seen[i], 0) << "task " << i;
        EXPECT_TRUE(ok[i]) << "task " << i;
    }
    EXPECT_EQ(ExpertSelector::drawHelpers(), helpers);
}

TEST(ExpertSelector, Top2KernelsInterleavedOnOneStream)
{
    // Layers of different gates drawing from one generator (a
    // mixed sweep) must leave the stream exactly where the
    // per-token loop leaves it after every call.
    Rng fast(77);
    Rng ref(77);
    std::vector<std::int64_t> hist;
    const std::vector<std::int64_t> counts = top2Tokens();
    int call = 0;
    for (int round = 0; round < 3; ++round) {
        for (int n : kTop2Experts) {
            const ExpertSelector sel(n, 2);
            const std::int64_t tokens = counts[call++ % counts.size()];
            SCOPED_TRACE(::testing::Message()
                         << "call=" << call << " n=" << n);
            sel.sampleInto(fast, tokens, hist);
            ASSERT_EQ(hist, sel.sampleReference(ref, tokens));
        }
    }
    EXPECT_EQ(fast.next(), ref.next());
}

TEST(ExpertSelector, LaneJumpMemoHitsMissesAndHitsAgain)
{
    // Sizes below and above each crossover on one stream: nine
    // layers at one size hit the lookahead and walk twice on one
    // jump memo entry; the serial kernel bypasses both; the memo
    // hits again while the moved stream misses the lookahead; a new
    // size misses both; and the memo is shared by both gates.
    Rng fast(91);
    Rng ref(91);
    std::vector<std::int64_t> hist;
    for (int n : {8, 64}) {
        const ExpertSelector sel(n, 2);
        const std::int64_t c = ExpertSelector::laneMinTokens(n);
        std::vector<std::int64_t> sizes(9, c + 9);
        for (std::int64_t tokens :
             {c - 1, c + 9, c + 17, c + 9, c + 9, c / 2, std::int64_t{830}})
            sizes.push_back(tokens);
        for (std::int64_t tokens : sizes) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " tokens=" << tokens);
            sel.sampleInto(fast, tokens, hist);
            ASSERT_EQ(hist, sel.sampleReference(ref, tokens));
            ASSERT_TRUE(sameState(fast, ref));
        }
    }
    EXPECT_EQ(fast.next(), ref.next());
}

/** The Zipf gate as the linear CDF scan it replaced. */
std::vector<std::int64_t>
zipfLinearScan(int n, int top_k, double s, Rng &rng,
               std::int64_t tokens)
{
    std::vector<double> cum(n);
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cum[i] = total;
    }
    for (auto &w : cum)
        w /= total;
    std::vector<std::int64_t> hist(n, 0);
    for (std::int64_t t = 0; t < tokens; ++t) {
        std::vector<int> chosen;
        while (static_cast<int>(chosen.size()) < top_k) {
            const double u = rng.uniform();
            int e = 0;
            while (e < n - 1 && cum[e] < u)
                ++e;
            if (std::find(chosen.begin(), chosen.end(), e) ==
                chosen.end())
                chosen.push_back(e);
        }
        for (int e : chosen)
            ++hist[e];
    }
    return hist;
}

TEST(ExpertSelector, ZipfBinarySearchMatchesLinearScan)
{
    for (int n : {8, 64}) {
        for (double s : {0.5, 1.0, 2.0}) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " s=" << s);
            const ExpertSelector sel(n, 2, GatePolicy::Zipf, s);
            Rng fast(n);
            Rng ref(n);
            EXPECT_EQ(sel.sample(fast, 4096),
                      zipfLinearScan(n, 2, s, ref, 4096));
            EXPECT_EQ(fast.next(), ref.next());
        }
    }
}

/** Parameterized: all paper gate configurations stay consistent. */
class GateSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(GateSweep, SumsAndBounds)
{
    const auto [nex, topk] = GetParam();
    ExpertSelector sel(nex, topk);
    Rng rng(31);
    const auto hist = sel.sample(rng, 128);
    EXPECT_EQ(static_cast<int>(hist.size()), nex);
    EXPECT_EQ(std::accumulate(hist.begin(), hist.end(),
                              std::int64_t{0}),
              128 * topk);
}

INSTANTIATE_TEST_SUITE_P(Models, GateSweep,
                         ::testing::Values(std::pair{8, 2},
                                           std::pair{64, 2},
                                           std::pair{8, 1},
                                           std::pair{16, 4}));

} // namespace
} // namespace duplex
