#include "workload/experts.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <thread>

#include "common/cpus.hh"
#include "common/log.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace duplex
{

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
 * 256-step lane walk per eight layers, plus one lane jump memo miss
 * per stage. Measured on a 4-core AVX-512 Xeon (g++ 12, -O3) with 32
 * layers per stage and a new token count every stage: about 3 us of
 * fixed cost per stage, and break-even against the serial kernels
 * near 16 tokens for 8 experts and 48 for 64.
 */
constexpr std::int64_t kLaneMinTokens8 = 16;
constexpr std::int64_t kLaneMinTokens64 = 48;

/**
 * Token count from which a lookahead miss of the 8-expert gate hands
 * a layer group to the helper thread: below it the hand-off, the
 * helper's jump memo misses and the lookahead lines the caller reads
 * back from another core cost more than the group saves. Measured on
 * the same host with 32-layer stages and a new token count every
 * stage. The 64-expert gate always draws alone.
 */
constexpr std::int64_t kGroupMinTokens = 32;

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
// tokens, 2T outputs each, from one stretch of the stream. Lane j
// draws the whole of layer j of the next eight from the state 2jT
// outputs ahead (Rng::laneStarts at stride 2T), so every token draws
// the same two outputs as in the serial loop, and lane j stops
// exactly where layer j + 1 starts: its end state is layer j's
// serial end state.

/** Layers one lane walk draws: one per lane. */
constexpr int kLaneLayers = 8;

/** Eight xoshiro256** generators, one per 64-bit lane. */
struct Lanes
{
    __m512i s0, s1, s2, s3;

    /**
     * rotl(s1 * 5, 7): the next output before its final * 9. The
     * * 9 adds x << 3, so the low 3 bits are already the output's.
     */
    __attribute__((target("avx512f"))) __m512i
    rotated() const
    {
        return _mm512_rol_epi64(
            _mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2)), 7);
    }

    /** The whole next output. */
    __attribute__((target("avx512f"))) __m512i
    output() const
    {
        const __m512i r = rotated();
        return _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
    }

    /** The linear state update, as Rng::next() makes it. */
    __attribute__((target("avx512f"))) void
    step()
    {
        // 0x96 is the three-way XOR.
        const __m512i t = _mm512_slli_epi64(s1, 17);
        const __m512i s3x = _mm512_xor_si512(s3, s1);
        s1 = _mm512_ternarylogic_epi64(s1, s2, s0, 0x96);
        s2 = _mm512_ternarylogic_epi64(s2, s0, t, 0x96);
        s0 = _mm512_xor_si512(s0, s3x);
        s3 = _mm512_rol_epi64(s3x, 45);
    }
};

/**
 * x % D in each lane, for D in {7, 63}: 2^36 and 2^18 are both 1
 * mod D, so two folds bring x below 2^20. There the fraction of
 * x * ceil(2^32 / D) times D gives the remainder (Lemire, Kaser and
 * Kurz, "Faster remainder by direct computation", 2019): exact
 * because 32 >= 20 + log2(D).
 */
template <std::uint64_t D>
__attribute__((target("avx512f"))) __m512i
modLanes(__m512i x)
{
    static_assert(D == 7 || D == 63);
    const __m512i low36 = _mm512_set1_epi64((std::int64_t{1} << 36) - 1);
    const __m512i low18 = _mm512_set1_epi64((std::int64_t{1} << 18) - 1);
    x = _mm512_add_epi64(_mm512_and_si512(x, low36),
                         _mm512_srli_epi64(x, 36));
    x = _mm512_add_epi64(_mm512_and_si512(x, low18),
                         _mm512_srli_epi64(x, 18));
    const __m512i frac = _mm512_mul_epu32(
        x, _mm512_set1_epi64(0xffffffffll / D + 1));
    return _mm512_srli_epi64(
        _mm512_mul_epu32(frac, _mm512_set1_epi64(D)), 32);
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

/** Lane j's state into @p ends[j]: where layer j + 1 starts. */
__attribute__((target("avx512f"))) void
storeLanes(const Lanes &lanes, std::uint64_t ends[kLaneLayers][4])
{
    alignas(64) std::uint64_t words[4][8];
    _mm512_store_si512(words[0], lanes.s0);
    _mm512_store_si512(words[1], lanes.s1);
    _mm512_store_si512(words[2], lanes.s2);
    _mm512_store_si512(words[3], lanes.s3);
    for (int j = 0; j < kLaneLayers; ++j)
        for (int w = 0; w < 4; ++w)
            ends[j][w] = words[w][j];
}

/**
 * 8 experts, @p tokens per layer, layer j in lane j. Each lane counts
 * in eight bytes, one per expert: a token adds the one-hot bytes of
 * its two distinct experts, so a byte gains at most 1 per row and is
 * flushed into lane j's histogram, @p hist[8 j ...], every 255 rows.
 */
__attribute__((target("avx512f"))) void
top2LaneLayers8(Lanes &lanes, std::int64_t tokens, std::int64_t *hist)
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
    alignas(64) std::uint64_t bytes[kLaneLayers];
    while (tokens > 0) {
        const std::int64_t chunk = std::min<std::int64_t>(tokens, 255);
        __m512i acc = _mm512_setzero_si512();
        for (std::int64_t r = 0; r < chunk; ++r) {
            const __m512i a = modLanes<7>(lanes.output());
            lanes.step();
            const __m512i b = lanes.rotated();
            lanes.step();
            const __m512i first = _mm512_permutexvar_epi64(a, one_hot);
            const __m512i second = _mm512_permutexvar_epi64(b, one_hot);
            acc = _mm512_add_epi64(
                acc, _mm512_add_epi64(
                         first, _mm512_mask_mov_epi64(
                                    second,
                                    _mm512_cmpeq_epi64_mask(first, second),
                                    last)));
        }
        _mm512_store_si512(bytes, acc);
        for (int j = 0; j < kLaneLayers; ++j)
            for (int e = 0; e < 8; ++e)
                hist[8 * j + e] += (bytes[j] >> (8 * e)) & 0xff;
        tokens -= chunk;
    }
}

/**
 * 64 experts, @p tokens per layer, layer j in lane j: the lanes draw
 * and reduce, and each row's 16 picks are counted straight into
 * @p hist as indices 64 j + expert, distinct within a row.
 */
__attribute__((target("avx512f"))) void
top2LaneLayers64(Lanes &lanes, std::int64_t tokens, std::int64_t *hist)
{
    const __m512i last = _mm512_set1_epi64(63);
    const __m512i base = _mm512_set_epi64(448, 384, 320, 256, 192, 128,
                                          64, 0);
    alignas(16) std::uint16_t picks[16];
    for (std::int64_t r = 0; r < tokens; ++r) {
        const __m512i a = modLanes<63>(lanes.output());
        lanes.step();
        const __m512i b = _mm512_and_si512(lanes.output(), last);
        lanes.step();
        const __m512i second =
            _mm512_mask_mov_epi64(b, _mm512_cmpeq_epi64_mask(a, b), last);
        _mm_store_si128(reinterpret_cast<__m128i *>(picks),
                        _mm512_cvtepi64_epi16(_mm512_add_epi64(a, base)));
        _mm_store_si128(
            reinterpret_cast<__m128i *>(picks + 8),
            _mm512_cvtepi64_epi16(_mm512_add_epi64(second, base)));
        for (std::uint16_t e : picks)
            ++hist[e];
    }
}

/**
 * A lane walk's jump masks, kept for the last token count. Cache-line
 * aligned: the caller's and the helper's are written by different
 * threads.
 */
struct alignas(64) JumpMemo
{
    std::int64_t tokens = -1;
    LaneJumps jumps;

    /**
     * The jumps of layer group @p group of @p t tokens: lane j
     * starts 2 * t * (8 * group + j) outputs ahead.
     */
    const LaneJumps &
    get(std::int64_t t, int group)
    {
        if (tokens != t) {
            const auto layer = 2 * static_cast<std::uint64_t>(t);
            jumps = laneJumps(kLaneLayers * layer * group, layer);
            tokens = t;
        }
        return jumps;
    }
};

/**
 * Group 0's jumps: every lookahead miss draws group 0 on the calling
 * thread. thread_local: sweep workers draw concurrently, and a
 * shared entry would need a lock on every walk.
 */
const LaneJumps &
laneJumpsMemo(std::int64_t tokens)
{
    thread_local JumpMemo memo;
    return memo.get(tokens, 0);
}

/** Layer groups one lookahead miss of the 8-expert gate may draw. */
constexpr int kMaxGroups = 2;

/** Layers the lookahead holds at most. */
constexpr int kMaxLayers = kLaneLayers * kMaxGroups;

/**
 * The layers a miss drew beyond the one it returned: their
 * histograms and the lanes' end states, eight per group. A call
 * takes layer `next` only if the generator stands exactly where
 * layer `next - 1` ended and asks for the same expert count and
 * token count, so a hit returns what a fresh walk would draw, and a
 * stream that is not the one the layers came from simply misses.
 * thread_local for the reasons the jump memo is. Helper threads
 * write whole groups into the caller's lookahead, so each group's
 * histograms and end states start on a cache line of their own.
 */
struct alignas(64) LaneLookahead
{
    int experts = 0;
    std::int64_t tokens = -1;
    int layers = 0;
    int next = 0; //!< next layer to serve; `layers`: none
    alignas(64) std::uint64_t ends[kMaxLayers][4] = {};
    // One group of 64-expert layers, or two of 8 experts.
    alignas(64) std::int64_t hist[kLaneLayers * 64] = {};

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

static_assert(kMaxLayers * 8 <= kLaneLayers * 64);
static_assert(sizeof(LaneLookahead) <= 5120,
              "the lookahead stays within 5 KB per thread");

/** This thread's lookahead, one for both gates. */
LaneLookahead &
laneLookahead()
{
    thread_local LaneLookahead ahead;
    return ahead;
}

/**
 * Draw layer group @p group of @p tokens, the eight layers that start
 * 16 * tokens * group outputs past @p start (@p jumps), into @p hist
 * (eight layers of N) and @p ends (eight end states).
 */
template <int N>
__attribute__((target("avx512f"))) void
drawGroup(const Rng &start, std::int64_t tokens, const LaneJumps &jumps,
          std::int64_t *hist, std::uint64_t ends[kLaneLayers][4])
{
    Lanes lanes = loadLanes(start, jumps);
    std::fill_n(hist, kLaneLayers * N, 0);
    if constexpr (N == 8)
        top2LaneLayers8(lanes, tokens, hist);
    else
        top2LaneLayers64(lanes, tokens, hist);
    storeLanes(lanes, ends);
}

/** Group @p group of @p ahead's layers, drawn in place. */
template <int N>
void
drawGroupInto(const Rng &start, std::int64_t tokens,
              const LaneJumps &jumps, LaneLookahead &ahead, int group)
{
    drawGroup<N>(start, tokens, jumps, ahead.hist + kLaneLayers * N * group,
                 ahead.ends + kLaneLayers * group);
}

/**
 * The helper: one process-wide thread, started on the first draw
 * that asks for it, that draws group 1 of the 8-expert gate for one
 * caller at a time, into a slot of its own. The caller publishes a
 * draw (the job, then a new epoch in one word), draws group 0, then
 * collects group 1: if the helper has not started it, the caller
 * draws it at once, and if it has, the caller waits for it only
 * until one more of its own group's times has passed, then draws it
 * too. One state word settles who draws the group, so a helper that
 * comes late, or is descheduled halfway, costs the caller at most
 * that wait, and its work is discarded. Between draws the helper
 * spins until a few of the recent gaps between draws, at most
 * kMaxSpinNs, have passed with no new draw, then parks on the word:
 * a run that draws every few tens of microseconds keeps it awake,
 * and one that draws now and then does not keep a core busy.
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
        // The spin window: kSpinGaps times a running mean of the gaps
        // between draws, each gap capped at kMaxSpinNs.
        meanGapNs_ += (std::min(nanos(start - lastDraw_), kMaxSpinNs) -
                       meanGapNs_) /
                      4;
        lastDraw_ = start;
        spinNs_.store(std::min(kSpinGaps * meanGapNs_, kMaxSpinNs),
                      std::memory_order_relaxed);
        publish(rng, tokens);
        drawGroupInto<8>(rng, tokens, laneJumpsMemo(tokens), ahead, 0);
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
     * The helper's spin window: kSpinGaps mean gaps between draws,
     * at most kMaxSpinNs. A helper woken from its park comes too
     * late for the draw that woke it, so the window must cover the
     * gaps of a busy run (moe-longrun draws every 10-40 us); the cap
     * keeps the helper awake only while draws come at least every
     * 50 us, and bounds what it burns after the last one.
     */
    static constexpr std::int64_t kSpinGaps = 4;
    static constexpr std::int64_t kMaxSpinNs = 200000;

    /** Detached, and never destroyed: a destructor that joined the
     * helper would hang in a forked child (a death test), which has
     * none. The helper writes only its own slot. */
    DrawHelper()
    {
        std::thread([this] { help(); }).detach();
    }

    DrawHelper(const DrawHelper &) = delete;
    DrawHelper &operator=(const DrawHelper &) = delete;

    static std::int64_t
    nanos(Clock::duration d)
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(d)
            .count();
    }

    /**
     * Write the job and start a new epoch. The job's words are
     * atomics read seqlock-style: a helper that reads them while the
     * next draw rewrites them has had its group taken, so the start
     * it claims after reading fails.
     */
    void
    publish(const Rng &rng, std::int64_t tokens)
    {
        ++epoch_;
        std::atomic_thread_fence(std::memory_order_release);
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
        const std::uint64_t mine = epoch_ << 2;
        std::uint64_t seen = state_.load(std::memory_order_acquire);
        for (unsigned spin = 1; seen != (mine | kDone); ++spin) {
            if (seen == (mine | kStarted) &&
                (spin % 8 != 0 || Clock::now() < deadline)) {
                _mm_pause();
                seen = state_.load(std::memory_order_acquire);
            } else if (state_.compare_exchange_weak(
                           seen, mine | kTaken, std::memory_order_acquire)) {
                drawGroupInto<8>(rng, tokens, memo_.get(tokens, 1), ahead,
                                 1);
                return;
            }
        }
        std::copy_n(slot_.hist, kLaneLayers * 8, ahead.hist + kLaneLayers * 8);
        std::copy_n(&slot_.ends[0][0], kLaneLayers * 4,
                    &ahead.ends[kLaneLayers][0]);
    }

    /** The helper's loop: group 1 of every draw. */
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
                std::uint64_t words[4];
                for (int w = 0; w < 4; ++w)
                    words[w] = jobState_[w].load(std::memory_order_relaxed);
                const std::int64_t tokens =
                    jobTokens_.load(std::memory_order_relaxed);
                std::atomic_thread_fence(std::memory_order_acquire);
                std::uint64_t expect = epoch << 2 | kPublished;
                if (state_.compare_exchange_strong(
                        expect, epoch << 2 | kStarted,
                        std::memory_order_relaxed)) {
                    Rng start;
                    start.setState(words);
                    drawGroup<8>(start, tokens, slot_.memo.get(tokens, 1),
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
            if (spin % 64 != 0 ||
                nanos(Clock::now() - idleSince) <
                    spinNs_.load(std::memory_order_relaxed))
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
    std::atomic<std::int64_t> spinNs_{kMaxSpinNs};
    std::atomic<std::uint64_t> jobState_[4] = {};
    std::atomic<std::int64_t> jobTokens_{0};
    // Written by both.
    alignas(64) std::atomic<std::uint64_t> state_{0};
    alignas(64) std::atomic<bool> busy_{false};
    std::atomic<int> sleepers_{0};
    // The caller's alone, under busy_.
    std::uint64_t epoch_ = 0;
    Clock::time_point lastDraw_{};
    std::int64_t meanGapNs_ = kMaxSpinNs;
    JumpMemo memo_; //!< group 1, when the caller takes it
    // The helper's alone, read by the caller once the group is done.
    struct alignas(64)
    {
        std::int64_t hist[kLaneLayers * 8];
        std::uint64_t ends[kLaneLayers][4];
        JumpMemo memo;
    } slot_;
};

/**
 * Draw the layers of @p tokens that start at @p rng's state into
 * @p ahead, eight per group, and serve the first into @p out. For 8
 * experts from the group crossover on, the caller and the helper
 * draw two groups in parallel; otherwise (64 experts, below the
 * crossover, on a sweep worker, or while another thread holds the
 * helper) one group of eight.
 */
template <int N>
void
drawLaneLayers(Rng &rng, std::int64_t tokens, LaneLookahead &ahead,
               std::int64_t *out)
{
    int groups = 1;
    DrawHelper *helper = N == 8 && tokens >= kGroupMinTokens
                             ? DrawHelper::tryAcquire()
                             : nullptr;
    if (helper) {
        helper->draw(rng, tokens, ahead);
        helper->release();
        groups = kMaxGroups;
    } else {
        drawGroupInto<N>(rng, tokens, laneJumpsMemo(tokens), ahead, 0);
    }
    ahead.experts = N;
    ahead.tokens = tokens;
    ahead.layers = kLaneLayers * groups;
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
        const int n = numExperts_;
        for (std::int64_t t = 0; t < tokens; ++t) {
            const int t1 =
                static_cast<int>(rng.uniformInt(0, n - 2));
            const int t2 =
                static_cast<int>(rng.uniformInt(0, n - 1));
            ++h[t1];
            ++h[t2 == t1 ? n - 1 : t2];
        }
        return;
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
