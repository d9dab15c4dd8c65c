/**
 * @file
 * Unit tests for the deterministic RNG and its distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <vector>

#include "common/rng.hh"

namespace duplex
{
namespace
{

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(5, 9);
        EXPECT_GE(v, 5);
        EXPECT_LE(v, 9);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(3);
    EXPECT_EQ(rng.uniformInt(4, 4), 4);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    const int n = 200000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShifted)
{
    Rng rng(13);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(100.0, 10.0);
    EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(Rng, TruncatedGaussianRespectsMinimum)
{
    Rng rng(17);
    for (int i = 0; i < 5000; ++i)
        EXPECT_GE(rng.truncatedGaussianInt(10.0, 50.0, 4), 4);
}

TEST(Rng, TruncatedGaussianMeanApprox)
{
    Rng rng(19);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(
            rng.truncatedGaussianInt(1000.0, 100.0, 1));
    // Truncation at 1 barely matters 10 sigma away.
    EXPECT_NEAR(sum / n, 1000.0, 5.0);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(23);
    const double rate = 8.0;
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.005);
}

TEST(Rng, ChooseDistinctReturnsDistinct)
{
    Rng rng(29);
    for (int trial = 0; trial < 1000; ++trial) {
        auto chosen = rng.chooseDistinct(8, 2);
        ASSERT_EQ(chosen.size(), 2u);
        EXPECT_NE(chosen[0], chosen[1]);
        for (int c : chosen) {
            EXPECT_GE(c, 0);
            EXPECT_LT(c, 8);
        }
    }
}

TEST(Rng, ChooseDistinctFullSet)
{
    Rng rng(31);
    auto chosen = rng.chooseDistinct(5, 5);
    std::sort(chosen.begin(), chosen.end());
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(chosen[i], i);
}

TEST(Rng, ChooseDistinctUniformish)
{
    Rng rng(37);
    std::vector<int> counts(8, 0);
    const int trials = 40000;
    for (int t = 0; t < trials; ++t)
        for (int c : rng.chooseDistinct(8, 2))
            ++counts[c];
    // Each expert should see about trials * 2 / 8 selections.
    const double expected = trials * 2.0 / 8.0;
    for (int c : counts)
        EXPECT_NEAR(c, expected, expected * 0.05);
}

// Committed, so nothing computes p(x) at start-up: it must be a
// constant expression. A primitive polynomial has a constant term.
static_assert(kXoshiroCharPoly[0] & 1);

constexpr std::uint64_t kJumpDistances[] = {
    0, 1, 2, 255, 256, 257, 12345, (std::uint64_t{1} << 20) + 3};

TEST(Rng, JumpEqualsRepeatedNext)
{
    for (std::uint64_t seed : {1ull, 42ull, 424242ull}) {
        for (std::uint64_t d : kJumpDistances) {
            SCOPED_TRACE(::testing::Message()
                         << "seed=" << seed << " d=" << d);
            Rng jumped(seed);
            Rng stepped(seed);
            jumped.jump(d);
            for (std::uint64_t i = 0; i < d; ++i)
                stepped.next();
            for (int i = 0; i < 4; ++i)
                EXPECT_EQ(jumped.next(), stepped.next());
        }
    }
}

TEST(Rng, JumpPolynomialsCompose)
{
    // x^a * x^b = x^(a+b) mod p, across the monomial / squaring
    // boundary at 256.
    for (std::uint64_t a : kJumpDistances)
        for (std::uint64_t b : {0ull, 3ull, 200ull, 70000ull})
            EXPECT_EQ(gf2MulMod(xoshiroJumpPoly(a), xoshiroJumpPoly(b)),
                      xoshiroJumpPoly(a + b))
                << "a=" << a << " b=" << b;
}

TEST(Rng, CarryLessProductMatchesHorner)
{
    // gf2MulMod (carry-less on hosts with PCLMULQDQ) against the
    // portable Horner product: the reduction's edges, then random
    // pairs.
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    const Gf2Poly edges[] = {{0, 0, 0, 0},
                             {1, 0, 0, 0},
                             {0, 0, 0, std::uint64_t{1} << 63},
                             {kAll, kAll, kAll, kAll},
                             kXoshiroCharPoly};
    for (const Gf2Poly &a : edges)
        for (const Gf2Poly &b : edges)
            EXPECT_EQ(gf2MulMod(a, b), gf2MulModReference(a, b));
    Rng rng(2718);
    for (int i = 0; i < 10000; ++i) {
        const Gf2Poly a = {rng.next(), rng.next(), rng.next(), rng.next()};
        const Gf2Poly b = {rng.next(), rng.next(), rng.next(), rng.next()};
        ASSERT_EQ(gf2MulMod(a, b), gf2MulModReference(a, b)) << "pair " << i;
    }
}

TEST(Rng, PinnedCharacteristicPolynomial)
{
    // Berlekamp-Massey over 512 bits of one state bit: the linear
    // engine has a primitive characteristic polynomial, so the
    // sequence's minimal polynomial is all of it.
    std::uint64_t state[4] = {0x0123456789abcdefull,
                              0xfedcba9876543210ull,
                              0x0f0f0f0f0f0f0f0full,
                              0x1111111111111111ull};
    Rng rng;
    rng.setState(state);
    constexpr int kBits = 512;
    std::vector<int> bits(kBits);
    for (int i = 0; i < kBits; ++i) {
        // A state bit, not an output bit: the ** scrambler's carries
        // are not linear.
        bits[i] = static_cast<int>(rng.state()[0] & 1);
        rng.next();
    }
    std::vector<int> c(kBits + 1, 0), b(kBits + 1, 0);
    c[0] = b[0] = 1;
    int length = 0;
    int shift = 1;
    for (int n = 0; n < kBits; ++n) {
        int discrepancy = bits[n];
        for (int i = 1; i <= length; ++i)
            discrepancy ^= c[i] & bits[n - i];
        if (!discrepancy) {
            ++shift;
            continue;
        }
        const std::vector<int> previous = c;
        for (int i = 0; i + shift <= kBits; ++i)
            c[i + shift] ^= b[i];
        if (2 * length <= n) {
            length = n + 1 - length;
            b = previous;
            shift = 1;
        } else {
            ++shift;
        }
    }
    ASSERT_EQ(length, 256);
    // Connection polynomial c(x) = x^256 p(1/x).
    Gf2Poly derived{};
    for (int i = 1; i <= length; ++i)
        if (c[i])
            derived[(length - i) / 64] |=
                std::uint64_t{1} << ((length - i) % 64);
    EXPECT_EQ(derived, kXoshiroCharPoly);
    if (HasFailure())
        std::printf("derived p(x): {0x%016llxull, 0x%016llxull, "
                    "0x%016llxull, 0x%016llxull}\n",
                    static_cast<unsigned long long>(derived[0]),
                    static_cast<unsigned long long>(derived[1]),
                    static_cast<unsigned long long>(derived[2]),
                    static_cast<unsigned long long>(derived[3]));
}

TEST(Rng, LaneJumpMasksAreTheTransposedPolynomials)
{
    // Portable: bit j of step i is lane j's coefficient of x^i, lane
    // j's polynomial x^(offset + j * stride) mod p.
    for (std::uint64_t offset : {0ull, 3ull, 300ull, 16ull * 830}) {
        for (std::uint64_t stride : {1ull, 2ull, 40ull, 1660ull}) {
            const LaneJumps jumps = laneJumps(offset, stride);
            for (int lane = 0; lane < 8; ++lane) {
                const Gf2Poly q = xoshiroJumpPoly(offset + lane * stride);
                for (int i = 0; i < 256; ++i)
                    ASSERT_EQ((jumps.steps[i / 8] >> (8 * (i % 8) + lane)) & 1,
                              (q[i / 64] >> (i % 64)) & 1)
                        << "offset=" << offset << " stride=" << stride
                        << " lane=" << lane << " step=" << i;
            }
        }
    }
}

TEST(Rng, LaneStartsMatchScalarJumps)
{
    if (Rng::laneWidth() != 8)
        GTEST_SKIP() << "no AVX-512F: the lane walk does not run here";
    // Offsets of 0, below x^256, and layer groups 1 and 3 of a
    // Mixtral stage of 830 tokens (16 * 830 outputs per group).
    for (std::uint64_t offset : {0ull, 7ull, 13280ull, 39840ull}) {
        for (std::uint64_t stride : {2ull, 64ull, 208ull, 2050ull}) {
            const LaneJumps jumps = laneJumps(offset, stride);
            const Rng start(99 + stride);
            std::uint64_t lanes[4][8];
            start.laneStarts(jumps, lanes);
            for (int j = 0; j < 8; ++j) {
                Rng expected = start;
                expected.jump(offset + j * stride);
                Rng lane;
                const std::uint64_t s[4] = {lanes[0][j], lanes[1][j],
                                            lanes[2][j], lanes[3][j]};
                lane.setState(s);
                EXPECT_EQ(lane.next(), expected.next())
                    << "offset=" << offset << " stride=" << stride
                    << " lane=" << j;
            }
        }
    }
}

/** Parameterized sweep: chooseDistinct(n, k) stays in bounds. */
class ChooseDistinctSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(ChooseDistinctSweep, BoundsAndDistinctness)
{
    const auto [n, k] = GetParam();
    Rng rng(41);
    for (int trial = 0; trial < 200; ++trial) {
        auto chosen = rng.chooseDistinct(n, k);
        ASSERT_EQ(chosen.size(), static_cast<std::size_t>(k));
        std::set<int> unique(chosen.begin(), chosen.end());
        EXPECT_EQ(unique.size(), chosen.size());
        for (int c : chosen) {
            EXPECT_GE(c, 0);
            EXPECT_LT(c, n);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Gates, ChooseDistinctSweep,
    ::testing::Values(std::pair{8, 2}, std::pair{64, 2},
                      std::pair{8, 1}, std::pair{64, 8},
                      std::pair{2, 2}, std::pair{16, 4}));

} // namespace
} // namespace duplex
