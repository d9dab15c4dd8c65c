/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * The paper's evaluation (Section VI) samples request lengths from
 * Gaussian distributions, expert choices uniformly, and request
 * arrivals from a Poisson process. Everything here is seeded
 * explicitly so a simulation is reproducible bit-for-bit.
 *
 * Jump-ahead. xoshiro256's state update is linear over GF(2), so
 * the state d outputs ahead is a fixed polynomial in the update
 * applied to today's state. ExpertSelector uses this to draw a
 * stage's consecutive MoE layers in eight SIMD lanes, a run of
 * consecutive layers per lane: each lane starts from the state its
 * first layer would have reached serially (laneJumps,
 * Rng::laneStarts), so the stream is consumed draw for draw as one
 * serial generator consumes it, and each lane ends where the next
 * lane's first layer starts. Only hosts with
 * AVX-512F take that path (Rng::laneWidth()); the jump math itself
 * is portable.
 */

#ifndef DUPLEX_COMMON_RNG_HH
#define DUPLEX_COMMON_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace duplex
{

/**
 * A polynomial over GF(2) of degree below 256: bit i % 64 of word
 * i / 64 is the coefficient of x^i.
 */
using Gf2Poly = std::array<std::uint64_t, 4>;

/**
 * p(x), the characteristic polynomial of xoshiro256's linear engine
 * (the state update without the ** scrambler), less its leading
 * x^256 term. A committed constant, so nothing derives it at run
 * time; `Rng.PinnedCharacteristicPolynomial` re-derives it by
 * Berlekamp-Massey from 512 state bits. Primitive, weight 115.
 */
inline constexpr Gf2Poly kXoshiroCharPoly = {
    0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull,
    0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull};

/**
 * a(x) * b(x) mod p(x). On an x86-64 host with PCLMULQDQ (checked
 * once), three 256-bit carry-less products and a Barrett reduction;
 * elsewhere gf2MulModReference.
 */
Gf2Poly gf2MulMod(const Gf2Poly &a, const Gf2Poly &b);

/**
 * a(x) * b(x) mod p(x) by Horner over b's 4-bit digits: portable,
 * and the oracle gf2MulMod's carry-less body is tested against.
 */
Gf2Poly gf2MulModReference(const Gf2Poly &a, const Gf2Poly &b);

/**
 * x^d mod p(x). The state update T is linear over GF(2) and
 * p(T) = 0, so T^d = q(T) for this q: the state d steps ahead is
 * the sum of T^i(state) over the coefficients i that q sets.
 * O(log d) products.
 */
Gf2Poly xoshiroJumpPoly(std::uint64_t d);

/**
 * Eight sub-streams of one generator, @p stride outputs apart from
 * @p offset on: lane j starts where offset + j * stride calls of
 * next() would leave it. Lane j's jump polynomial is
 * x^(offset + j * stride) mod p, stored transposed as one 8-bit mask
 * per step: bit j of step i is its coefficient of x^i. Byte i % 8 of
 * word i / 8 holds step i.
 */
struct LaneJumps
{
    std::uint64_t steps[32];
};

/**
 * The LaneJumps of eight lanes @p stride outputs apart, the first
 * @p offset outputs ahead: up to nine products mod p and one bit
 * matrix transpose, under a microsecond with a carry-less multiply.
 * They depend on the two distances alone, so a caller that repeats
 * them keeps them (ExpertSelector keeps the last ones on each
 * thread).
 */
LaneJumps laneJumps(std::uint64_t offset, std::uint64_t stride);

/**
 * A small, fast, deterministic generator (xoshiro256**) with the
 * distribution helpers the workload layer needs. Not cryptographic.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /**
     * Next raw 64-bit value. Inline: expert selection draws this
     * hundreds of millions of times per figure sweep.
     */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        step(state_);
        return result;
    }

    /**
     * Advance the stream as @p d calls of next() would, in 256
     * linear steps plus xoshiroJumpPoly(d). Leaves the Gaussian
     * spare alone.
     */
    void jump(std::uint64_t d);

    /**
     * How many sub-streams this host steps at once: 8 when the CPU
     * has AVX-512F (checked once, on first call), else 1, and then
     * laneStarts() must not be called.
     */
    static int laneWidth();

    /**
     * The eight lane starts of @p jumps from the current state, by
     * one 256-step walk of the state: at step i, every lane whose
     * mask bit is set adds (XOR) T^i(state). Word w of lane j goes
     * to lanes[w][j]. The state does not move. Needs
     * laneWidth() == 8.
     */
    void laneStarts(const LaneJumps &jumps,
                    std::uint64_t lanes[4][8]) const;

    /** The raw state, four words. */
    const std::uint64_t *state() const { return state_; }

    /** Continue from a state a lane kernel stepped to. */
    void setState(const std::uint64_t state[4])
    {
        for (int w = 0; w < 4; ++w)
            state_[w] = state[w];
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 mantissa bits give a uniform double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi)
    {
        panicIf(lo > hi, "uniformInt: empty range");
        const std::uint64_t span =
            static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(next() % span);
    }

    /** Standard normal via Box-Muller (cached pair). */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Positive integer from a truncated Gaussian: resampled until the
     * value is at least @p min_value. Used for sequence lengths.
     */
    std::int64_t truncatedGaussianInt(double mean, double stddev,
                                      std::int64_t min_value);

    /** Exponential inter-arrival gap for a Poisson process (seconds). */
    double exponential(double rate_per_sec);

    /**
     * Choose @p k distinct values uniformly from [0, n). Order is not
     * significant. Used for top-k expert selection (uniform gate).
     */
    std::vector<int> chooseDistinct(int n, int k);

    /**
     * Allocation-free chooseDistinct: writes @p k distinct values
     * into @p out (caller provides at least k slots). Consumes the
     * same draws as chooseDistinct, so mixing the two preserves the
     * stream.
     */
    void chooseDistinctInto(int n, int k, int *out)
    {
        panicIf(k > n || k < 0,
                "chooseDistinct: need 0 <= k <= n");
        // Floyd's algorithm: O(k) draws, no allocation of [0, n).
        int count = 0;
        for (int j = n - k; j < n; ++j) {
            const int t = static_cast<int>(uniformInt(0, j));
            bool seen = false;
            for (int i = 0; i < count; ++i) {
                if (out[i] == t) {
                    seen = true;
                    break;
                }
            }
            out[count++] = seen ? j : t;
        }
    }

  private:
    std::uint64_t state_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;

    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** The linear engine T: one state update, no output. */
    static void step(std::uint64_t s[4])
    {
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
    }
};

} // namespace duplex

#endif // DUPLEX_COMMON_RNG_HH
