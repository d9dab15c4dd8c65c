#include "workload/experts.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <thread>

#include "common/cpus.hh"
#include "common/log.hh"
#include "workload/expert_lanes.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace duplex
{

bool
laneRemainderIfma()
{
#if defined(__x86_64__)
    static const bool ifma =
        Rng::laneWidth() == 8 && __builtin_cpu_supports("avx512ifma");
    return ifma;
#else
    return false;
#endif
}

namespace
{

// Uniform top-2 kernels. Each token draws a = next() % (N-1) and
// b = next() % N and selects experts a and (b == a ? N-1 : b):
// Floyd's algorithm unrolled, the same values as
// uniformInt(0, N-2) and uniformInt(0, N-1) in sampleOneToken, so
// the kernels consume the identical stream and only count
// differently. With N a compile-time constant both remainders
// become multiplies. The generator is copied into a local and
// written back at the end: the int64_t histogram stores could
// otherwise alias its uint64_t state and force it through memory
// on every token.

/** Pair cells are 32-bit, so fold at most this many tokens each. */
constexpr std::int64_t kPairBlockTokens = std::int64_t{1} << 31;

/**
 * Small N: one increment per token into the (N-1) x N table of
 * (a, b) draws, folded into @p hist per block. No tie branch and
 * no store-forwarding chain between two increments into N bins.
 */
template <int N>
void
top2PairCells(Rng &rng, std::int64_t tokens, std::int64_t *hist)
{
    Rng local = rng;
    std::uint32_t cells[(N - 1) * N];
    while (tokens > 0) {
        const std::int64_t block = std::min(tokens, kPairBlockTokens);
        std::fill(std::begin(cells), std::end(cells), 0u);
        for (std::int64_t t = 0; t < block; ++t) {
            const std::uint64_t a = local.next() % (N - 1);
            const std::uint64_t b = local.next() % N;
            ++cells[a * N + b];
        }
        for (int a = 0; a < N - 1; ++a) {
            for (int b = 0; b < N; ++b) {
                const std::uint32_t c = cells[a * N + b];
                hist[a] += c;
                hist[b == a ? N - 1 : b] += c;
            }
        }
        tokens -= block;
    }
    rng = local;
}

/**
 * Large N (GLaM's 64): folding the (N-1) x N table would cost more
 * than it saves at decode batch sizes, so count straight into
 * @p hist.
 */
template <int N>
void
top2Direct(Rng &rng, std::int64_t tokens, std::int64_t *hist)
{
    Rng local = rng;
    for (std::int64_t t = 0; t < tokens; ++t) {
        const std::uint64_t a = local.next() % (N - 1);
        const std::uint64_t b = local.next() % N;
        ++hist[a];
        ++hist[b == a ? N - 1 : b];
    }
    rng = local;
}

/**
 * Token counts from which the lanes pay for their fixed cost: one
 * 256-step lane walk per miss (32 layers for 8 experts, 16 for 64),
 * plus one lane jump memo miss per new token count. Measured on a
 * 4-core AVX-512 Xeon (g++ 12, -O3) with a new token count every
 * stage, drawing alone: 32-layer stages of 8 experts cost 1.2-1.4 us
 * on the lanes at 1 and 4 tokens against 2.2-2.6 us on the serial
 * pair-cell kernel, so the lanes win at every count; 16-layer stages
 * of 64 experts break even between 28 and 36 tokens (1.9-2.2 us
 * either way at 32).
 */
constexpr std::int64_t kLaneMinTokens8 = 1;
constexpr std::int64_t kLaneMinTokens64 = 32;

/**
 * Token count from which a lookahead miss of the 8-expert gate hands
 * half its layers to the helper thread: below it the hand-off, the
 * helper's jump memo misses and the lookahead lines the caller reads
 * back from another core cost more than the half saves. Measured on
 * the same host with 32-layer stages and a new token count every
 * stage: with the helper 2.5-2.7 us against 2.1-2.2 us alone at 32
 * tokens, about even from 64 to 80, 3.3-3.6 against 3.6-3.8 us at
 * 96 and 4.2-4.6 against 5.3-5.5 us at 164. The 64-expert gate
 * always draws alone.
 */
constexpr std::int64_t kGroupMinTokens = 96;

/** Set on SweepRunner's workers: their draws never take the helper. */
thread_local bool tlsDrawsAlone = false;

/**
 * Helper threads: one if this process may run on two CPUs or more
 * (its affinity mask, and its cgroup CPU quota), else none. Checked
 * once. Not one per spare CPU: on a shared host every core a draw
 * waits for is one that another tenant can take for a while. Three
 * helpers made moe-longrun about 2x faster on a quiet host, but
 * with two busy loops beside them it lost about a third of its
 * speed, and its runs spread several times as widely as one
 * thread's; one helper gains about 1.45x and lost under a tenth.
 */
int
helperThreads()
{
    static const int helpers = usableCpus() > 1 ? 1 : 0;
    return helpers;
}

#if defined(__x86_64__)

// GCC 12's AVX-512 intrinsics start from a self-initialised
// undefined vector, which -Wmaybe-uninitialized reports once inlined.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// Lane kernels. Consecutive MoE layers of a stage draw the same T
// tokens, 2T outputs each, from one stretch of the stream. A miss
// draws a stage's worth of layers in one or two groups of eight
// lanes, k consecutive layers per lane: lane j of group g starts
// from the state 2T (8kg + kj) outputs ahead (Rng::laneStarts at
// stride 2kT), so every token draws the same two outputs as in the
// serial loop. All lanes cross a layer boundary together, every T
// rows, and lane j's state there is where its next layer starts;
// after its last layer, where the next lane's first one does.

/** Lanes per layer group. */
constexpr int kLanes = 8;

/**
 * Layers one lookahead miss draws: a Mixtral stage's 32 MoE layers
 * for 8 experts, 16 (GLaM's) for 64. Mixtral, Grok1 (64) and GLaM
 * are multiples of it; a model with fewer MoE layers per stage pays
 * for layers it never takes, but never gets a wrong one. A constant,
 * not a hint from the caller: a replay of one layer at a time (as
 * perfbench times the draws) takes the same path as a simulation.
 */
template <int N>
constexpr int kMissLayers = N == 8 ? 32 : 16;

/** Layer groups one miss of the 8-expert gate may draw. */
constexpr int kMaxGroups = 2;

/** Layers the lookahead holds at most. */
constexpr int kMaxLayers = kMissLayers<8>;

/** Histogram words the lookahead holds: either gate's miss. */
constexpr int kAheadCounts =
    std::max(kMissLayers<8> * 8, kMissLayers<64> * 64);

/** Eight xoshiro256** generators, one per 64-bit lane. */
struct Lanes
{
    __m512i s0, s1, s2, s3;

    /**
     * rotl(s1 * 5, 7) for state word @p s1: its output before the
     * final * 9. The * 9 adds x << 3, so the low 3 bits are already
     * the output's.
     */
    __attribute__((target("avx512f"))) static __m512i
    rotated(__m512i s1)
    {
        return _mm512_rol_epi64(
            _mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2)), 7);
    }

    /** The whole output of state word @p s1. */
    __attribute__((target("avx512f"))) static __m512i
    output(__m512i s1)
    {
        const __m512i r = rotated(s1);
        return _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
    }

    /**
     * Two state updates, as two calls of Rng::next() make them, in
     * one: 11 instructions where two steps take 12. Returns s1 of the
     * state in between, which gives the second output. With
     * v = s2 ^ s0 and u = s3 ^ s1 the middle s1 is s1 ^ v, and two
     * steps give s0 = s3 ^ s2 ^ rotl(u, 45), s1 = (s1 << 17) ^ s0 ^
     * s3, s2 = u ^ s2 ^ (v << 17), s3 = rotl(rotl(u, 45) ^ s1 ^ v, 45).
     */
    __attribute__((target("avx512f"))) __m512i
    step2()
    {
        // 0x96 is the three-way XOR.
        const __m512i v = _mm512_xor_si512(s2, s0);
        const __m512i u = _mm512_xor_si512(s3, s1);
        const __m512i middle = _mm512_xor_si512(s1, v);
        // vpternlogq overwrites its first operand. Each first operand
        // is a word no later line reads, and the words are rewritten
        // in an order that lets each new word take its old word's
        // register: fewer register copies in the kernels' loops.
        s1 = _mm512_ternarylogic_epi64(_mm512_slli_epi64(s1, 17), s0, s3,
                                       0x96);
        const __m512i ru = _mm512_rol_epi64(u, 45);
        const __m512i w = _mm512_xor_si512(ru, middle);
        s0 = _mm512_ternarylogic_epi64(ru, s3, s2, 0x96);
        s2 = _mm512_ternarylogic_epi64(s2, u, _mm512_slli_epi64(v, 17),
                                       0x96);
        s3 = _mm512_rol_epi64(w, 45);
        return middle;
    }
};

// vpmadd52luq / vpmadd52huq with x as both the accumulator and a
// multiplicand: x plus the low / high 52 bits of the 104-bit product
// of the low 52 bits of x and c. Inline assembly, so the kernels keep
// one target (avx512f); only hosts where laneRemainderIfma() holds
// run them.

__attribute__((target("avx512f"))) inline __m512i
madd52loSelf(__m512i x, __m512i c)
{
    asm("vpmadd52luq %1, %0, %0" : "+v"(x) : "v"(c));
    return x;
}

__attribute__((target("avx512f"))) inline __m512i
madd52hiSelf(__m512i x, __m512i c)
{
    asm("vpmadd52huq %1, %0, %0" : "+v"(x) : "v"(c));
    return x;
}

/** Bits that hold x % D in modLanes' result: D + 1 is 2^kModBits. */
template <std::uint64_t D>
constexpr int kModBits = D == 7 ? 3 : 6;

/**
 * x % D in each lane, for D in {7, 63}, in the low kModBits<D> bits;
 * the bits above are not defined. By Lemire, Kaser and Kurz ("Faster
 * remainder by direct computation", 2019): the fraction of
 * x * ceil(2^F / D), times D, shifted down F bits, is x % D for x
 * below 2^(F - log2(D)). 2^36 is 1 mod D, so a fold brings x below
 * 2^37 first. With @p Ifma, two 52-bit multiplies with the fraction
 * kept in the top F = 52 - kModBits bits of 52 (F >= 37 + log2(D)),
 * each accumulating into its own input, so no register is zeroed or
 * copied: x + x (c - 1) is x c mod 2^52, a multiple of 2^kModBits,
 * and adding the remainder to it leaves the low bits the remainder.
 * Without IFMA, a second fold, by 2^18, brings x below 2^20 for two
 * 32-bit multiplies (F = 32), exact in every bit.
 */
template <std::uint64_t D, bool Ifma>
__attribute__((target("avx512f"))) __m512i
modLanes(__m512i x)
{
    static_assert(D == 7 || D == 63);
    const __m512i low36 = _mm512_set1_epi64((std::int64_t{1} << 36) - 1);
    x = _mm512_add_epi64(_mm512_and_si512(x, low36),
                         _mm512_srli_epi64(x, 36));
    if constexpr (Ifma) {
        constexpr int bits = kModBits<D>;
        constexpr std::uint64_t c =
            ((std::uint64_t{1} << (52 - bits)) / D + 1) << bits;
        const __m512i frac = madd52loSelf(
            x, _mm512_set1_epi64(static_cast<std::int64_t>(c - 1)));
        return madd52hiSelf(frac, _mm512_set1_epi64(D));
    } else {
        const __m512i low18 = _mm512_set1_epi64((std::int64_t{1} << 18) - 1);
        x = _mm512_add_epi64(_mm512_and_si512(x, low18),
                             _mm512_srli_epi64(x, 18));
        const __m512i frac = _mm512_mul_epu32(
            x, _mm512_set1_epi64(0xffffffffll / D + 1));
        return _mm512_srli_epi64(
            _mm512_mul_epu32(frac, _mm512_set1_epi64(D)), 32);
    }
}

/** The eight lane starts of @p jumps from @p rng's state. */
__attribute__((target("avx512f"))) Lanes
loadLanes(const Rng &rng, const LaneJumps &jumps)
{
    alignas(64) std::uint64_t starts[4][8];
    rng.laneStarts(jumps, starts);
    return {_mm512_load_si512(starts[0]), _mm512_load_si512(starts[1]),
            _mm512_load_si512(starts[2]), _mm512_load_si512(starts[3])};
}

/**
 * Lane j's state into @p ends[layers * j + layer]: the end state of
 * its layer @p layer, of @p layers per lane.
 */
__attribute__((target("avx512f"))) void
storeLanes(const Lanes &lanes, int layers, int layer,
           std::uint64_t ends[][4])
{
    alignas(64) std::uint64_t words[4][8];
    _mm512_store_si512(words[0], lanes.s0);
    _mm512_store_si512(words[1], lanes.s1);
    _mm512_store_si512(words[2], lanes.s2);
    _mm512_store_si512(words[3], lanes.s3);
    for (int j = 0; j < kLanes; ++j)
        for (int w = 0; w < 4; ++w)
            ends[layers * j + layer][w] = words[w][j];
}

/**
 * 8 experts, @p tokens per layer, @p layers layers per lane: lane j
 * draws layers layers * j ... into @p hist (8 counts each) and
 * @p ends. Each lane counts in eight bytes, one per expert: a token
 * adds the one-hot bytes of its two distinct experts, so a byte gains
 * at most 1 per row and is flushed into the layer's histogram every
 * 255 rows and at the layer's end.
 */
template <bool Ifma>
__attribute__((target("avx512f"))) void
top2LaneLayers8(Lanes lanes, std::int64_t tokens, int layers,
                std::int64_t *hist, std::uint64_t ends[][4])
{
    // Lane e holds expert e's one-hot byte. vpermq reads only the
    // low 3 index bits, which rotated() shares with the output, so
    // b = output % 8 needs neither the * 9 nor a mask.
    const __m512i one_hot = _mm512_set_epi64(
        std::int64_t{1} << 56, std::int64_t{1} << 48,
        std::int64_t{1} << 40, std::int64_t{1} << 32,
        std::int64_t{1} << 24, std::int64_t{1} << 16,
        std::int64_t{1} << 8, 1);
    const __m512i last = _mm512_set1_epi64(std::int64_t{1} << 56);
    alignas(64) std::uint64_t bytes[kLanes];
    for (int layer = 0; layer < layers; ++layer) {
        for (std::int64_t left = tokens; left > 0;) {
            const std::int64_t chunk = std::min<std::int64_t>(left, 255);
            __m512i acc = _mm512_setzero_si512();
            // Four rows per pass: the state words rotate through
            // registers with fewer copies.
#pragma GCC unroll 4
            for (std::int64_t r = 0; r < chunk; ++r) {
                const __m512i a =
                    modLanes<7, Ifma>(Lanes::output(lanes.s1));
                const __m512i b = Lanes::rotated(lanes.step2());
                const __m512i first = _mm512_permutexvar_epi64(a, one_hot);
                const __m512i second =
                    _mm512_permutexvar_epi64(b, one_hot);
                acc = _mm512_add_epi64(
                    acc,
                    _mm512_add_epi64(
                        first, _mm512_mask_mov_epi64(
                                   second,
                                   _mm512_cmpeq_epi64_mask(first, second),
                                   last)));
            }
            _mm512_store_si512(bytes, acc);
            for (int j = 0; j < kLanes; ++j) {
                std::int64_t *h = hist + 8 * (layers * j + layer);
                for (int e = 0; e < 8; ++e)
                    h[e] += (bytes[j] >> (8 * e)) & 0xff;
            }
            left -= chunk;
        }
        storeLanes(lanes, layers, layer, ends);
    }
}

/**
 * 64 experts, as top2LaneLayers8 lays them out: the lanes draw and
 * reduce, and each row's 16 picks are counted straight into @p hist
 * as indices 64 * (layers * j + layer) + expert, distinct within a
 * row.
 */
template <bool Ifma>
__attribute__((target("avx512f"))) void
top2LaneLayers64(Lanes lanes, std::int64_t tokens, int layers,
                 std::int64_t *hist, std::uint64_t ends[][4])
{
    // A pick's index is its expert OR'd into its layer's base, a
    // multiple of 64: (x & 63) | base, one vpternlogq (0xea).
    const __m512i low6 = _mm512_set1_epi64(63);
    const std::int64_t lane = 64 * layers;
    __m512i base = _mm512_set_epi64(7 * lane, 6 * lane, 5 * lane,
                                    4 * lane, 3 * lane, 2 * lane, lane, 0);
    alignas(16) std::uint16_t picks[16];
    for (int layer = 0; layer < layers; ++layer) {
        const __m512i last = _mm512_or_si512(base, low6);
        for (std::int64_t r = 0; r < tokens; ++r) {
            // Without optimisation _mm512_ternarylogic_epi64 is a
            // macro, so no argument may hold a template's comma.
            const __m512i rem = modLanes<63, Ifma>(Lanes::output(lanes.s1));
            const __m512i a =
                _mm512_ternarylogic_epi64(rem, low6, base, 0xea);
            const __m512i b = _mm512_ternarylogic_epi64(
                Lanes::output(lanes.step2()), low6, base, 0xea);
            const __m512i second = _mm512_mask_mov_epi64(
                b, _mm512_cmpeq_epi64_mask(a, b), last);
            _mm_store_si128(reinterpret_cast<__m128i *>(picks),
                            _mm512_cvtepi64_epi16(a));
            _mm_store_si128(reinterpret_cast<__m128i *>(picks + 8),
                            _mm512_cvtepi64_epi16(second));
            // Read the picks back from memory: GCC would otherwise
            // take each from the register with vpextrw, two vector
            // instructions per pick.
            asm("" : "+m"(picks));
            for (std::uint16_t e : picks)
                ++hist[e];
        }
        storeLanes(lanes, layers, layer, ends);
        base = _mm512_add_epi64(base, _mm512_set1_epi64(64));
    }
}

/**
 * The jumps of layer group @p group of @p tokens, @p layers per lane:
 * lane j starts 2 tokens (8 layers group + layers j) outputs ahead.
 * Each thread keeps the last offset and stride it walked: a stage's
 * token count rarely repeats in a serving run, and a sweep worker or
 * the helper draws one group at one stride. thread_local: sweep
 * workers draw concurrently, and a shared entry would need a lock on
 * every walk.
 */
const LaneJumps &
groupJumps(std::int64_t tokens, int layers, int group)
{
    thread_local struct
    {
        std::uint64_t offset = 0;
        std::uint64_t stride = 0; //!< 0: none kept
        LaneJumps jumps;
    } memo;
    const std::uint64_t stride = 2 * static_cast<std::uint64_t>(tokens) *
                                 static_cast<std::uint64_t>(layers);
    const std::uint64_t offset = kLanes * stride * group;
    if (stride != memo.stride || offset != memo.offset) {
        memo.jumps = laneJumps(offset, stride);
        memo.offset = offset;
        memo.stride = stride;
    }
    return memo.jumps;
}

/**
 * The layers a miss drew beyond the one it returned: their
 * histograms and end states. A call takes layer `next` only if the
 * generator stands exactly where layer `next - 1` ended and asks for
 * the same expert count and token count, so a hit returns what a
 * fresh walk would draw, and a stream that is not the one the layers
 * came from simply misses. thread_local for the reasons the jump
 * memo is. The helper's group is copied in by the caller.
 */
struct alignas(64) LaneLookahead
{
    int experts = 0;
    std::int64_t tokens = -1;
    int layers = 0;
    int next = 0; //!< next layer to serve; `layers`: none
    alignas(64) std::uint64_t ends[kMaxLayers][4] = {};
    alignas(64) std::int64_t hist[kAheadCounts] = {};

    /** Serve layer `next` into @p out if @p rng stands at its start. */
    bool
    take(Rng &rng, int n, std::int64_t t, std::int64_t *out)
    {
        if (next >= layers || n != experts || t != tokens ||
            !std::equal(ends[next - 1], ends[next - 1] + 4, rng.state()))
            return false;
        std::copy_n(hist + n * next, n, out);
        rng.setState(ends[next]);
        ++next;
        return true;
    }
};

static_assert(kMissLayers<8> % (kLanes * kMaxGroups) == 0 &&
              kMissLayers<64> % kLanes == 0);
static_assert(sizeof(LaneLookahead) <= 9600,
              "the lookahead (32 x 8 or 16 x 64 counts and 32 end "
              "states) stays within 9.6 KB per thread");

/** This thread's lookahead, one for both gates. */
LaneLookahead &
laneLookahead()
{
    thread_local LaneLookahead ahead;
    return ahead;
}

/**
 * Draw a layer group of @p tokens, @p layers per lane, from @p start
 * and its lane @p jumps: N counts per layer into @p hist and one end
 * state per layer into @p ends, lane j's layers at layers * j on.
 */
template <int N>
__attribute__((target("avx512f"))) void
drawGroup(const Rng &start, std::int64_t tokens, int layers,
          const LaneJumps &jumps, std::int64_t *hist,
          std::uint64_t ends[][4])
{
    Lanes lanes = loadLanes(start, jumps);
    std::fill_n(hist, kLanes * layers * N, 0);
    const bool ifma = laneRemainderIfma();
    if constexpr (N == 8) {
        if (ifma)
            top2LaneLayers8<true>(lanes, tokens, layers, hist, ends);
        else
            top2LaneLayers8<false>(lanes, tokens, layers, hist, ends);
    } else {
        if (ifma)
            top2LaneLayers64<true>(lanes, tokens, layers, hist, ends);
        else
            top2LaneLayers64<false>(lanes, tokens, layers, hist, ends);
    }
}

/** Layers per lane when the helper draws half of a miss. */
constexpr int kSharedLaneLayers = kMissLayers<8> / (kLanes * kMaxGroups);

/** Layers in each half. */
constexpr int kHalfLayers = kLanes * kSharedLaneLayers;

/**
 * The helper: one process-wide thread, started on the first draw
 * that asks for it, that draws group 1 (the second half of a miss)
 * of the 8-expert gate for one caller at a time, into a slot of its
 * own. The caller publishes a draw (the job, then a new epoch in one
 * word), draws group 0, then collects group 1: if the helper has not
 * started it, the caller draws it at once, and if it has, the caller
 * waits for it only until one more of its own group's times has
 * passed, then draws it too. One state word settles who draws the
 * group, so a helper that comes late, or is descheduled halfway,
 * costs the caller at most that wait, and its work is discarded.
 * Between draws the helper spins for kSpin with no new draw, then
 * parks on the word: a run that draws every few tens of microseconds
 * keeps it awake, and one that draws now and then does not keep a
 * core busy.
 */
class DrawHelper
{
  public:
    /**
     * The helper if the calling thread may use it and no other
     * thread holds it, else null. Starts the helper on first call.
     */
    static DrawHelper *
    tryAcquire()
    {
        if (tlsDrawsAlone || helperThreads() == 0)
            return nullptr;
        // The helper runs until the process exits.
        static DrawHelper *const helper = new DrawHelper();
        if (helper->busy_.load(std::memory_order_relaxed) ||
            helper->busy_.exchange(true, std::memory_order_acquire))
            return nullptr;
        return helper;
    }

    void release() { busy_.store(false, std::memory_order_release); }

    /** Draw groups 0 and 1 of @p tokens from @p rng's state. */
    void
    draw(const Rng &rng, std::int64_t tokens, LaneLookahead &ahead)
    {
        const auto start = Clock::now();
        publish(rng, tokens);
        drawGroup<8>(rng, tokens, kSharedLaneLayers,
                     groupJumps(tokens, kSharedLaneLayers, 0), ahead.hist,
                     ahead.ends);
        const auto drawn = Clock::now();
        collect(rng, tokens, ahead, drawn + (drawn - start));
    }

  private:
    using Clock = std::chrono::steady_clock;

    /** Group 1's state word: epoch << 2 | one of these. */
    enum GroupState : std::uint64_t
    {
        kPublished = 0,
        kStarted = 1, //!< the helper draws it
        kDone = 2,    //!< the helper drew it into its slot
        kTaken = 3,   //!< the caller draws it
    };

    /**
     * How long the helper spins with no new draw before it parks. A
     * helper woken from its park comes too late for the draw that
     * woke it, so the window must cover the gaps of a busy run
     * (moe-longrun draws every 10-40 us), and it bounds what the
     * helper burns after a run's last draw.
     */
    static constexpr std::chrono::microseconds kSpin{200};

    /** Detached, and never destroyed: a destructor that joined the
     * helper would hang in a forked child (a death test), which has
     * none. The helper writes only its own slot. */
    DrawHelper()
    {
        std::thread([this] { help(); }).detach();
    }

    DrawHelper(const DrawHelper &) = delete;
    DrawHelper &operator=(const DrawHelper &) = delete;

    /**
     * Write the job and start a new epoch. The release store of the
     * published state hands the job to the helper's claim. The job's
     * words are relaxed atomics: after the caller takes back a group
     * the helper started, its next publish may rewrite them while the
     * helper still reads them, and that helper's draw is dropped.
     */
    void
    publish(const Rng &rng, std::int64_t tokens)
    {
        ++epoch_;
        for (int w = 0; w < 4; ++w)
            jobState_[w].store(rng.state()[w], std::memory_order_relaxed);
        jobTokens_.store(tokens, std::memory_order_relaxed);
        state_.store(epoch_ << 2 | kPublished, std::memory_order_release);
        work_.store(epoch_, std::memory_order_seq_cst);
        // One notify per park: a helper that was woken but has not
        // run yet needs no second one.
        if (sleepers_.load(std::memory_order_seq_cst) > 0 &&
            sleepers_.exchange(0, std::memory_order_seq_cst) > 0)
            work_.notify_all();
    }

    /**
     * Move group 1 into @p ahead: the helper's slot if the helper
     * finishes by @p deadline, else drawn here.
     */
    void
    collect(const Rng &rng, std::int64_t tokens, LaneLookahead &ahead,
            Clock::time_point deadline)
    {
        std::int64_t *hist = ahead.hist + kHalfLayers * 8;
        std::uint64_t(*ends)[4] = ahead.ends + kHalfLayers;
        const std::uint64_t mine = epoch_ << 2;
        std::uint64_t seen = state_.load(std::memory_order_acquire);
        for (unsigned spin = 1; seen != (mine | kDone); ++spin) {
            if (seen == (mine | kStarted) &&
                (spin % 8 != 0 || Clock::now() < deadline)) {
                _mm_pause();
                seen = state_.load(std::memory_order_acquire);
            } else if (state_.compare_exchange_weak(
                           seen, mine | kTaken, std::memory_order_acquire)) {
                drawGroup<8>(rng, tokens, kSharedLaneLayers,
                             groupJumps(tokens, kSharedLaneLayers, 1), hist,
                             ends);
                return;
            }
        }
        std::copy_n(slot_.hist, kHalfLayers * 8, hist);
        std::copy_n(&slot_.ends[0][0], kHalfLayers * 4, &ends[0][0]);
    }

    /**
     * The helper's loop: claim group 1 of every draw, then read its
     * job and draw it. The claim's acquire pairs with publish()'s
     * release, so the job it reads is at least that draw's.
     */
    __attribute__((target("avx512f"))) void
    help()
    {
        std::uint64_t epoch = 0;
        auto idleSince = Clock::now();
        for (unsigned spin = 1;; ++spin) {
            const std::uint64_t published =
                work_.load(std::memory_order_acquire);
            if (published != epoch) {
                epoch = published;
                std::uint64_t expect = epoch << 2 | kPublished;
                if (state_.compare_exchange_strong(
                        expect, epoch << 2 | kStarted,
                        std::memory_order_acquire,
                        std::memory_order_relaxed)) {
                    std::uint64_t words[4];
                    for (int w = 0; w < 4; ++w)
                        words[w] = jobState_[w].load(std::memory_order_relaxed);
                    const std::int64_t tokens =
                        jobTokens_.load(std::memory_order_relaxed);
                    Rng start;
                    start.setState(words);
                    drawGroup<8>(start, tokens, kSharedLaneLayers,
                                 groupJumps(tokens, kSharedLaneLayers, 1),
                                 slot_.hist, slot_.ends);
                    // Fails if the caller took the group meanwhile.
                    expect = epoch << 2 | kStarted;
                    state_.compare_exchange_strong(expect, epoch << 2 | kDone,
                                                   std::memory_order_release,
                                                   std::memory_order_relaxed);
                }
                idleSince = Clock::now();
                continue;
            }
            _mm_pause();
            if (spin % 64 != 0 || Clock::now() - idleSince < kSpin)
                continue;
            // Park until the next draw is published. The caller
            // notifies only when it sees a sleeper, and reads
            // sleepers_ after its store, as this reads work_ after
            // its increment: one of the two sees the other.
            sleepers_.fetch_add(1, std::memory_order_seq_cst);
            if (work_.load(std::memory_order_seq_cst) == epoch)
                work_.wait(epoch, std::memory_order_seq_cst);
            idleSince = Clock::now();
        }
    }

    // Written by the caller once per draw, read by the helper.
    alignas(64) std::atomic<std::uint64_t> work_{0};
    std::atomic<std::uint64_t> jobState_[4] = {};
    std::atomic<std::int64_t> jobTokens_{0};
    // Written by both.
    alignas(64) std::atomic<std::uint64_t> state_{0};
    alignas(64) std::atomic<bool> busy_{false};
    std::atomic<int> sleepers_{0};
    // The caller's alone, under busy_.
    std::uint64_t epoch_ = 0;
    // The helper's alone, read by the caller once the group is done.
    struct alignas(64)
    {
        std::int64_t hist[kHalfLayers * 8];
        std::uint64_t ends[kHalfLayers][4];
    } slot_;
};

/**
 * Draw the kMissLayers<N> layers of @p tokens that start at @p rng's
 * state into @p ahead and serve the first into @p out. For 8 experts
 * from the group crossover on, the caller and the helper draw half
 * each, two layers per lane; otherwise (64 experts, below the
 * crossover, on a sweep worker, or while another thread holds the
 * helper) the caller draws them all in one group of eight lanes.
 */
template <int N>
void
drawLaneLayers(Rng &rng, std::int64_t tokens, LaneLookahead &ahead,
               std::int64_t *out)
{
    DrawHelper *helper = N == 8 && tokens >= kGroupMinTokens
                             ? DrawHelper::tryAcquire()
                             : nullptr;
    if (helper) {
        helper->draw(rng, tokens, ahead);
        helper->release();
    } else {
        constexpr int layers = kMissLayers<N> / kLanes;
        drawGroup<N>(rng, tokens, layers, groupJumps(tokens, layers, 0),
                     ahead.hist, ahead.ends);
    }
    ahead.experts = N;
    ahead.tokens = tokens;
    ahead.layers = kMissLayers<N>;
    ahead.next = 1;
    std::copy_n(ahead.hist, N, out);
    rng.setState(ahead.ends[0]);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif

/**
 * Uniform top-2 over N experts: the next layer of the lookahead, or
 * fresh layers drawn on SIMD lanes, of which the first is returned.
 * False, drawing nothing, below the crossover or on a host without
 * AVX-512F.
 */
template <int N>
bool
top2Lanes([[maybe_unused]] Rng &rng, [[maybe_unused]] std::int64_t tokens,
          [[maybe_unused]] std::int64_t *hist)
{
#if defined(__x86_64__)
    static_assert(N == 8 || N == 64);
    if (tokens < (N == 8 ? kLaneMinTokens8 : kLaneMinTokens64) ||
        Rng::laneWidth() != 8)
        return false;
    LaneLookahead &ahead = laneLookahead();
    if (!ahead.take(rng, N, tokens, hist))
        drawLaneLayers<N>(rng, tokens, ahead, hist);
    return true;
#else
    return false;
#endif
}

} // namespace

#if defined(__x86_64__)

__attribute__((target("avx512f"))) void
laneRemainders(std::uint64_t divisor, bool ifma, const std::uint64_t *x,
               std::uint64_t *out, std::size_t words)
{
    panicIf(Rng::laneWidth() != 8 || (ifma && !laneRemainderIfma()),
            "laneRemainders: this host has no such body");
    panicIf((divisor != 7 && divisor != 63) || words % 8 != 0,
            "laneRemainders: divisor 7 or 63, words a multiple of 8");
    for (std::size_t i = 0; i < words; i += 8) {
        const __m512i v = _mm512_loadu_si512(x + i);
        const __m512i r =
            divisor == 7
                ? (ifma ? modLanes<7, true>(v) : modLanes<7, false>(v))
                : (ifma ? modLanes<63, true>(v) : modLanes<63, false>(v));
        // D + 1 is a power of two: keep the bits that hold x % D.
        _mm512_storeu_si512(
            out + i,
            _mm512_and_si512(r, _mm512_set1_epi64(
                                    static_cast<std::int64_t>(divisor))));
    }
}

#else

void
laneRemainders(std::uint64_t, bool, const std::uint64_t *, std::uint64_t *,
               std::size_t)
{
    panic("laneRemainders: no SIMD lanes on this host");
}

#endif

ExpertSelector::ExpertSelector(int num_experts, int top_k,
                               GatePolicy policy, double zipf_s)
    : numExperts_(num_experts), topK_(top_k), policy_(policy)
{
    fatalIf(num_experts <= 0, "ExpertSelector: need experts");
    fatalIf(top_k <= 0 || top_k > num_experts,
            "ExpertSelector: need 0 < topK <= numExperts");
    if (policy_ == GatePolicy::Zipf) {
        cumWeights_.resize(numExperts_);
        double total = 0.0;
        for (int i = 0; i < numExperts_; ++i) {
            total += 1.0 / std::pow(static_cast<double>(i + 1),
                                    zipf_s);
            cumWeights_[i] = total;
        }
        for (auto &w : cumWeights_)
            w /= total;
    }
}

void
ExpertSelector::sampleOneToken(Rng &rng,
                               std::vector<std::int64_t> &hist) const
{
    if (policy_ == GatePolicy::Uniform) {
        if (topK_ == 2) {
            // Floyd's algorithm unrolled for the paper models'
            // top-2 gate: identical draws to chooseDistinct(n, 2).
            const int t1 = static_cast<int>(
                rng.uniformInt(0, numExperts_ - 2));
            const int t2 = static_cast<int>(
                rng.uniformInt(0, numExperts_ - 1));
            ++hist[t1];
            ++hist[t2 == t1 ? numExperts_ - 1 : t2];
        } else if (topK_ <= 8) {
            // Stack buffer, no allocation per token.
            int chosen[8];
            rng.chooseDistinctInto(numExperts_, topK_, chosen);
            for (int i = 0; i < topK_; ++i)
                ++hist[chosen[i]];
        } else {
            for (int e : rng.chooseDistinct(numExperts_, topK_))
                ++hist[e];
        }
        return;
    }
    // Zipf: rejection-sample distinct experts by CDF inversion.
    int chosen[8];
    panicIf(topK_ > 8, "topK > 8 unsupported for Zipf gate");
    int found = 0;
    while (found < topK_) {
        const double u = rng.uniform();
        // First expert whose CDF reaches u, else the last one.
        const int e = static_cast<int>(
            std::lower_bound(cumWeights_.begin(),
                             cumWeights_.end() - 1, u) -
            cumWeights_.begin());
        bool dup = false;
        for (int i = 0; i < found; ++i)
            if (chosen[i] == e)
                dup = true;
        if (!dup)
            chosen[found++] = e;
    }
    for (int i = 0; i < found; ++i)
        ++hist[chosen[i]];
}

std::int64_t
ExpertSelector::laneMinTokens(int num_experts)
{
    return num_experts == 8    ? kLaneMinTokens8
           : num_experts == 64 ? kLaneMinTokens64
                               : 0;
}

std::int64_t
ExpertSelector::groupMinTokens(int num_experts)
{
    return num_experts == 8 ? kGroupMinTokens : 0;
}

int
ExpertSelector::drawHelpers()
{
    return Rng::laneWidth() == 8 && !tlsDrawsAlone ? helperThreads() : 0;
}

void
ExpertSelector::drawAloneOnThisThread()
{
    tlsDrawsAlone = true;
}

std::vector<std::int64_t>
ExpertSelector::sample(Rng &rng, std::int64_t tokens) const
{
    std::vector<std::int64_t> hist;
    sampleInto(rng, tokens, hist);
    return hist;
}

void
ExpertSelector::sampleInto(Rng &rng, std::int64_t tokens,
                           std::vector<std::int64_t> &hist) const
{
    hist.assign(numExperts_, 0);
    if (policy_ == GatePolicy::Uniform && topK_ == 2) {
        // The paper models all gate top-2 over 8 or 64 experts.
        std::int64_t *h = hist.data();
        if (numExperts_ == 8) {
            if (!top2Lanes<8>(rng, tokens, h))
                top2PairCells<8>(rng, tokens, h);
            return;
        }
        if (numExperts_ == 64) {
            if (!top2Lanes<64>(rng, tokens, h))
                top2Direct<64>(rng, tokens, h);
            return;
        }
    }
    for (std::int64_t t = 0; t < tokens; ++t)
        sampleOneToken(rng, hist);
}

std::vector<std::int64_t>
ExpertSelector::sampleReference(Rng &rng, std::int64_t tokens) const
{
    std::vector<std::int64_t> hist(numExperts_, 0);
    for (std::int64_t t = 0; t < tokens; ++t)
        sampleOneToken(rng, hist);
    return hist;
}

} // namespace duplex
