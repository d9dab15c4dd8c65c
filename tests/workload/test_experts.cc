/**
 * @file
 * Expert-selection tests: uniform gates (the paper's default) and
 * the skewed gates of Section VIII-B.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

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

TEST(ExpertSelector, Top2KernelsMatchPerTokenReference)
{
    for (int n : kTop2Experts) {
        const ExpertSelector sel(n, 2);
        for (std::int64_t tokens : kTop2Tokens) {
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

TEST(ExpertSelector, Top2KernelsInterleavedOnOneStream)
{
    // Layers of different gates drawing from one generator (a
    // mixed sweep) must leave the stream exactly where the
    // per-token loop leaves it after every call.
    Rng fast(77);
    Rng ref(77);
    std::vector<std::int64_t> hist;
    int call = 0;
    for (int round = 0; round < 3; ++round) {
        for (int n : kTop2Experts) {
            const ExpertSelector sel(n, 2);
            const std::int64_t tokens =
                kTop2Tokens[call++ % std::size(kTop2Tokens)];
            SCOPED_TRACE(::testing::Message()
                         << "call=" << call << " n=" << n);
            sel.sampleInto(fast, tokens, hist);
            ASSERT_EQ(hist, sel.sampleReference(ref, tokens));
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
