#include "common/rng.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace duplex
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

constexpr Gf2Poly
gf2Xor(Gf2Poly a, const Gf2Poly &b)
{
    for (int w = 0; w < 4; ++w)
        a[w] ^= b[w];
    return a;
}

/** a(x) * x mod p(x). */
constexpr Gf2Poly
gf2MulX(const Gf2Poly &a)
{
    const std::uint64_t carry = a[3] >> 63;
    Gf2Poly r = {a[0] << 1, (a[1] << 1) | (a[0] >> 63),
                 (a[2] << 1) | (a[1] >> 63),
                 (a[3] << 1) | (a[2] >> 63)};
    return carry ? gf2Xor(r, kXoshiroCharPoly) : r;
}

/** The 16 multiples v(x) * a(x) mod p(x), deg v < 4. */
constexpr std::array<Gf2Poly, 16>
gf2Multiples(const Gf2Poly &a)
{
    std::array<Gf2Poly, 16> m{};
    m[1] = a;
    for (int v = 2; v < 16; v <<= 1)
        m[v] = gf2MulX(m[v >> 1]);
    for (int v = 3; v < 16; ++v)
        if (v & (v - 1))
            m[v] = gf2Xor(m[v & (v - 1)], m[v & -v]);
    return m;
}

/** v(x) * x^256 mod p(x): folds the 4 bits a shift by x^4 drops. */
constexpr std::array<Gf2Poly, 16> kFoldHigh4 =
    gf2Multiples(kXoshiroCharPoly);

/**
 * mu(x) = floor(x^512 / p(x)) less its leading x^256: the Barrett
 * constant of the carry-less gf2MulMod. Long division of x^512 by
 * p(x) = x^256 + kXoshiroCharPoly, bit by bit from the top.
 */
constexpr Gf2Poly kBarrettMu = [] {
    std::uint64_t rem[9] = {0, 0, 0, 0, 0, 0, 0, 0, 1}; // x^512
    Gf2Poly mu{};
    for (int k = 512; k >= 256; --k) {
        if (!((rem[k / 64] >> (k % 64)) & 1))
            continue;
        // Subtract x^s p(x), s = k - 256: clears bit k.
        const int s = k - 256;
        if (s < 256)
            mu[s / 64] |= std::uint64_t{1} << (s % 64);
        rem[k / 64] ^= std::uint64_t{1} << (k % 64);
        for (int w = 0; w < 4; ++w) {
            rem[w + s / 64] ^= kXoshiroCharPoly[w] << (s % 64);
            if (s % 64)
                rem[w + s / 64 + 1] ^=
                    kXoshiroCharPoly[w] >> (64 - s % 64);
        }
    }
    return mu;
}();

/**
 * The 8 x 8 bit matrix in @p x, row r in byte r and column c in bit
 * c, transposed: bit c of byte r moves to bit r of byte c (Hacker's
 * Delight, transpose8: swaps of 1 x 1, 2 x 2 and 4 x 4 blocks).
 */
constexpr std::uint64_t
transpose8(std::uint64_t x)
{
    std::uint64_t t = (x ^ (x >> 7)) & 0x00aa00aa00aa00aaull;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000cccc0000ccccull;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000f0f0f0f0ull;
    return x ^ t ^ (t << 28);
}

/**
 * The 8 x 8 byte matrix in @p rows, row r in rows[r] and column c in
 * byte c, transposed in place: swaps of 4 x 4, 2 x 2 and 1 x 1 byte
 * blocks.
 */
void
transposeBytes8(std::uint64_t rows[8])
{
    constexpr std::uint64_t kLowBlocks[] = {
        0x00000000ffffffffull, 0x0000ffff0000ffffull,
        0x00ff00ff00ff00ffull};
    int level = 0;
    for (int size = 4; size >= 1; size /= 2, ++level) {
        const int shift = 8 * size;
        for (int r = 0; r < 8; ++r) {
            if (r & size)
                continue;
            // Row r's high blocks trade places with row r + size's
            // low blocks.
            const std::uint64_t t =
                ((rows[r] >> shift) ^ rows[r + size]) & kLowBlocks[level];
            rows[r] ^= t << shift;
            rows[r + size] ^= t;
        }
    }
}

#if defined(__x86_64__)

/** A 256-bit polynomial as two halves: words 0-1 and 2-3. */
struct Clmul256
{
    __m128i lo, hi;
};

__attribute__((target("pclmul"))) inline Clmul256
loadPoly(const Gf2Poly &a)
{
    return {_mm_loadu_si128(reinterpret_cast<const __m128i *>(a.data())),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a.data() + 2))};
}

/**
 * The 512-bit carry-less product a(x) * b(x): its low and high 256
 * bits. Kept in registers, so the reduction that follows never
 * reloads a word from memory.
 */
__attribute__((target("pclmul"))) inline void
clmul256(const Clmul256 &a, const Clmul256 &b, Clmul256 &low,
         Clmul256 &high)
{
    // sumK holds the 128-bit products of the word pairs (i, j) with
    // i + j = K; the immediate's bit 0 picks a's word, bit 4 b's.
    const __m128i sum0 = _mm_clmulepi64_si128(a.lo, b.lo, 0x00);
    const __m128i sum1 =
        _mm_xor_si128(_mm_clmulepi64_si128(a.lo, b.lo, 0x01),
                      _mm_clmulepi64_si128(a.lo, b.lo, 0x10));
    const __m128i sum2 = _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(a.lo, b.lo, 0x11),
                      _mm_clmulepi64_si128(a.hi, b.lo, 0x00)),
        _mm_clmulepi64_si128(a.lo, b.hi, 0x00));
    const __m128i sum3 = _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(a.hi, b.lo, 0x01),
                      _mm_clmulepi64_si128(a.hi, b.lo, 0x10)),
        _mm_xor_si128(_mm_clmulepi64_si128(a.lo, b.hi, 0x01),
                      _mm_clmulepi64_si128(a.lo, b.hi, 0x10)));
    const __m128i sum4 = _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(a.hi, b.lo, 0x11),
                      _mm_clmulepi64_si128(a.lo, b.hi, 0x11)),
        _mm_clmulepi64_si128(a.hi, b.hi, 0x00));
    const __m128i sum5 =
        _mm_xor_si128(_mm_clmulepi64_si128(a.hi, b.hi, 0x01),
                      _mm_clmulepi64_si128(a.hi, b.hi, 0x10));
    const __m128i sum6 = _mm_clmulepi64_si128(a.hi, b.hi, 0x11);
    // An odd sum straddles two word pairs.
    low.lo = _mm_xor_si128(sum0, _mm_slli_si128(sum1, 8));
    low.hi = _mm_xor_si128(
        _mm_xor_si128(sum2, _mm_srli_si128(sum1, 8)),
        _mm_slli_si128(sum3, 8));
    high.lo = _mm_xor_si128(
        _mm_xor_si128(sum4, _mm_srli_si128(sum3, 8)),
        _mm_slli_si128(sum5, 8));
    high.hi = _mm_xor_si128(sum6, _mm_srli_si128(sum5, 8));
}

/**
 * gf2MulMod by carry-less products. With c = a * b = c_hi x^256 +
 * c_lo, the quotient c / p is q = c_hi + floor(c_hi mu / x^256)
 * exactly (over GF(2) Barrett needs no correction step), and
 * c mod p = c_lo + (q * p mod x^256) = c_lo + low half of
 * q * kXoshiroCharPoly.
 */
__attribute__((target("pclmul"))) Gf2Poly
gf2MulModClmul(const Gf2Poly &a, const Gf2Poly &b)
{
    Clmul256 c_lo, c_hi, t_lo, t_hi, u_lo, u_hi;
    clmul256(loadPoly(a), loadPoly(b), c_lo, c_hi);
    clmul256(c_hi, loadPoly(kBarrettMu), t_lo, t_hi);
    const Clmul256 q = {_mm_xor_si128(c_hi.lo, t_hi.lo),
                        _mm_xor_si128(c_hi.hi, t_hi.hi)};
    clmul256(q, loadPoly(kXoshiroCharPoly), u_lo, u_hi);
    Gf2Poly r;
    _mm_storeu_si128(reinterpret_cast<__m128i *>(r.data()),
                     _mm_xor_si128(c_lo.lo, u_lo.lo));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(r.data() + 2),
                     _mm_xor_si128(c_lo.hi, u_lo.hi));
    return r;
}

#endif

} // namespace

Gf2Poly
gf2MulMod(const Gf2Poly &a, const Gf2Poly &b)
{
#if defined(__x86_64__)
    static const bool clmul = __builtin_cpu_supports("pclmul");
    if (clmul)
        return gf2MulModClmul(a, b);
#endif
    return gf2MulModReference(a, b);
}

Gf2Poly
gf2MulModReference(const Gf2Poly &a, const Gf2Poly &b)
{
    // Horner over b's 4-bit digits, high to low:
    // acc = acc * x^4 + a * digit, each step reduced mod p.
    const std::array<Gf2Poly, 16> multiples = gf2Multiples(a);
    Gf2Poly acc{};
    for (int digit = 63; digit >= 0; --digit) {
        const Gf2Poly &fold = kFoldHigh4[acc[3] >> 60];
        const Gf2Poly &add =
            multiples[(b[digit / 16] >> (4 * (digit % 16))) & 15];
        acc = {(acc[0] << 4) ^ fold[0] ^ add[0],
               ((acc[1] << 4) | (acc[0] >> 60)) ^ fold[1] ^ add[1],
               ((acc[2] << 4) | (acc[1] >> 60)) ^ fold[2] ^ add[2],
               ((acc[3] << 4) | (acc[2] >> 60)) ^ fold[3] ^ add[3]};
    }
    return acc;
}

Gf2Poly
xoshiroJumpPoly(std::uint64_t d)
{
    // The top 8 bits of d give a monomial below x^256 outright;
    // each lower bit squares, then multiplies by x when set.
    const int bits = 64 - __builtin_clzll(d | 1);
    const int low = std::max(0, bits - 8);
    const std::uint64_t top = d >> low;
    Gf2Poly q{};
    q[top / 64] = std::uint64_t{1} << (top % 64);
    for (int i = low - 1; i >= 0; --i) {
        q = gf2MulMod(q, q);
        if ((d >> i) & 1)
            q = gf2MulX(q);
    }
    return q;
}

LaneJumps
laneJumps(std::uint64_t offset, std::uint64_t stride)
{
    // Below x^256 a lane's polynomial is a monomial: no product.
    const Gf2Poly step = xoshiroJumpPoly(stride);
    Gf2Poly lanes[8];
    lanes[0] = xoshiroJumpPoly(offset);
    for (int lane = 1; lane < 8; ++lane) {
        const std::uint64_t distance = offset + lane * stride;
        lanes[lane] = distance < 256 ? xoshiroJumpPoly(distance)
                                     : gf2MulMod(lanes[lane - 1], step);
    }
    // Word w of the eight polynomials is an 8 x 64 bit matrix, lane
    // by coefficient; the masks are its transpose. Bytes first, then
    // the bits of each 8 x 8 block.
    LaneJumps jumps;
    for (int w = 0; w < 4; ++w) {
        std::uint64_t rows[8];
        for (int lane = 0; lane < 8; ++lane)
            rows[lane] = lanes[lane][w];
        transposeBytes8(rows);
        for (int byte = 0; byte < 8; ++byte)
            jumps.steps[8 * w + byte] = transpose8(rows[byte]);
    }
    return jumps;
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

void
Rng::jump(std::uint64_t d)
{
    const Gf2Poly q = xoshiroJumpPoly(d);
    std::uint64_t walk[4] = {state_[0], state_[1], state_[2], state_[3]};
    std::uint64_t sum[4] = {0, 0, 0, 0};
    for (int i = 0; i < 256; ++i) {
        const std::uint64_t take = -((q[i / 64] >> (i % 64)) & 1);
        for (int w = 0; w < 4; ++w)
            sum[w] ^= walk[w] & take;
        step(walk);
    }
    setState(sum);
}

#if defined(__x86_64__)

int
Rng::laneWidth()
{
    static const int width = __builtin_cpu_supports("avx512f") ? 8 : 1;
    return width;
}

__attribute__((target("avx512f"))) void
Rng::laneStarts(const LaneJumps &jumps, std::uint64_t lanes[4][8]) const
{
    std::uint64_t walk[4] = {state_[0], state_[1], state_[2], state_[3]};
    __m512i sum[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512()};
    // Two steps per round, folded into the sums by one three-way
    // XOR (0x96) per word.
    for (int i = 0; i < 256; i += 2) {
        const std::uint64_t masks = jumps.steps[i / 8] >> (8 * (i % 8));
        const auto mask = static_cast<__mmask8>(masks);
        const auto next_mask = static_cast<__mmask8>(masks >> 8);
        __m512i first[4];
        for (int w = 0; w < 4; ++w)
            first[w] = _mm512_maskz_set1_epi64(
                mask, static_cast<long long>(walk[w]));
        step(walk);
        for (int w = 0; w < 4; ++w)
            sum[w] = _mm512_ternarylogic_epi64(
                sum[w], first[w],
                _mm512_maskz_set1_epi64(
                    next_mask, static_cast<long long>(walk[w])),
                0x96);
        step(walk);
    }
    for (int w = 0; w < 4; ++w)
        _mm512_storeu_si512(lanes[w], sum[w]);
}

#else

int
Rng::laneWidth()
{
    return 1;
}

void
Rng::laneStarts(const LaneJumps &, std::uint64_t[4][8]) const
{
    panic("Rng::laneStarts: no SIMD lanes on this host");
}

#endif

double
Rng::gaussian()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * M_PI * u2);
    hasSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

std::int64_t
Rng::truncatedGaussianInt(double mean, double stddev,
                          std::int64_t min_value)
{
    for (int attempt = 0; attempt < 1024; ++attempt) {
        const double v = gaussian(mean, stddev);
        const auto len = static_cast<std::int64_t>(std::llround(v));
        if (len >= min_value)
            return len;
    }
    // Pathological (mean far below min); clamp rather than spin.
    return min_value;
}

double
Rng::exponential(double rate_per_sec)
{
    panicIf(rate_per_sec <= 0.0, "exponential: rate must be positive");
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate_per_sec;
}

std::vector<int>
Rng::chooseDistinct(int n, int k)
{
    // chooseDistinctInto validates 0 <= k <= n.
    std::vector<int> chosen(k < 0 ? 0 : k);
    chooseDistinctInto(n, k, chosen.data());
    return chosen;
}

} // namespace duplex
