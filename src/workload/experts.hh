/**
 * @file
 * Expert selection: per-token top-k gating.
 *
 * The paper samples target experts uniformly (Section VI, following
 * Switch Transformers); Section VIII-B discusses skewed gates with
 * hot and cold experts, which we model with a Zipf distribution for
 * the ablation study.
 */

#ifndef DUPLEX_WORKLOAD_EXPERTS_HH
#define DUPLEX_WORKLOAD_EXPERTS_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace duplex
{

/** Gate distribution over experts. */
enum class GatePolicy
{
    Uniform, //!< every expert equally likely (paper default)
    Zipf,    //!< hot/cold experts, P(i) ~ 1/(i+1)^s
};

/** Samples per-expert token histograms for MoE layers. */
class ExpertSelector
{
  public:
    /**
     * @param num_experts Experts per MoE layer (Nex).
     * @param top_k       Experts chosen per token.
     * @param policy      Gate distribution.
     * @param zipf_s      Skew exponent for the Zipf policy.
     */
    ExpertSelector(int num_experts, int top_k,
                   GatePolicy policy = GatePolicy::Uniform,
                   double zipf_s = 1.0);

    int numExperts() const { return numExperts_; }
    int topK() const { return topK_; }

    /**
     * Sample how many of @p tokens select each expert. The
     * histogram sums to tokens * topK.
     */
    std::vector<std::int64_t> sample(Rng &rng,
                                     std::int64_t tokens) const;

    /**
     * Allocation-free sample(): resets and fills @p hist (resized
     * to numExperts). Same draws as sample(), so the two can be
     * mixed without perturbing the stream; the simulators call this
     * once per MoE layer with a reused scratch histogram.
     *
     * The uniform top-2 gate over 8 or 64 experts (the paper
     * models' gates) runs a kernel specialised on the expert count.
     * From laneMinTokens() tokens on, on a host whose
     * Rng::laneWidth() is 8, it draws a stage's worth of consecutive
     * layers of @p tokens at once (32 for 8 experts, 16 for 64),
     * returns the first, and keeps the others and their end states
     * in a lookahead. The layers are split among eight AVX-512
     * lanes, each drawing consecutive layers from the stream state
     * where its first one starts (Rng::laneStarts at a stride of
     * 2 * tokens per layer), so one walk of the state serves the
     * whole miss. The next call takes the next kept layer only if
     * @p rng's whole state is that layer's start and the expert and
     * token counts are the same; anything else (another stream, a
     * draw in between, a new token count) misses and draws fresh
     * layers. Below the crossover, or without AVX-512F, the serial
     * kernels run (top2PairCells<8>, top2Direct<64>). Either way the
     * stream is consumed draw for draw as the per-token loop
     * consumes it: every token draws the same two outputs, the
     * histogram is the same, and @p rng is left at the same state.
     *
     * An MoE stage draws its layers back to back with one token
     * count (Mixtral 32, GLaM 16, Grok1 64 MoE layers: multiples of
     * the miss depth; a model with fewer MoE layers per stage pays
     * for layers it never takes, but never gets a wrong one). For 8
     * experts from groupMinTokens() tokens on, a miss with a
     * drawHelpers() helper thread splits its 32 layers in two groups
     * of eight lanes, two layers per lane, group 1 from the state
     * 32 * tokens outputs ahead: the caller draws group 0 and the
     * helper group 1, so a Mixtral stage pays one walk on each
     * thread and one hand-off. If the helper has not started group 1
     * when the caller is done with group 0, or has not finished it
     * within as long again, the caller draws it too and the helper's
     * copy is dropped. The helper is process-wide and serves one
     * caller at a time; a caller that finds it busy draws all 32
     * layers alone, four per lane, as does a thread marked by
     * drawAloneOnThisThread(). Each group keeps its own lane jump
     * memo, keyed by its offset and stride, and the caller's group 0
     * keeps one per group count, so each misses at most once per
     * token count. The lookahead (32 layers of 8 experts or 16 of
     * 64, and 32 end states: about 9.3 KB) and group 0's memos are
     * thread_local, not members: this method stays const, and
     * threads that draw at once (sweep workers, or two callers of
     * which one finds the helper held) never share an entry. The
     * helper draws into a slot of its own, which the caller copies
     * from once the group is done.
     */
    void sampleInto(Rng &rng, std::int64_t tokens,
                    std::vector<std::int64_t> &hist) const;

    /**
     * Token count from which the uniform top-2 gate over
     * @p num_experts draws on SIMD lanes, when Rng::laneWidth() is
     * 8; 0 for expert counts without a lane kernel. Measured
     * constants (1 for 8 experts, 32 for 64), for stages of 32 and
     * 16 layers with a new token count every stage: below them a
     * stage's lane walk and jump memo miss cost more than the lanes
     * save.
     */
    static std::int64_t laneMinTokens(int num_experts);

    /**
     * Token count from which a lookahead miss of the uniform top-2
     * gate over @p num_experts hands half its layers to the helper
     * thread: 96 for 8 experts, measured as laneMinTokens() is; 0
     * for every other expert count, which always draws alone.
     */
    static std::int64_t groupMinTokens(int num_experts);

    /**
     * Helper threads a draw on the calling thread may hand a layer
     * group to: 1 if the process may use two CPUs or more (its
     * affinity mask, capped by its cgroup CPU quota), else 0; 0 on
     * a host without AVX-512F or on a thread marked by
     * drawAloneOnThisThread(). Starts nothing.
     */
    static int drawHelpers();

    /**
     * Mark the calling thread to draw alone: its draws never use the
     * helper threads. SweepRunner's workers call this, so a sweep
     * keeps one level of parallelism, whole runs.
     */
    static void drawAloneOnThisThread();

    /**
     * Per-token reference implementation of sample(), retained to
     * pin sampleInto's kernels in the equivalence tests (same
     * histogram, same draws). Not used on any simulation path.
     */
    std::vector<std::int64_t> sampleReference(Rng &rng,
                                              std::int64_t tokens) const;

  private:
    int numExperts_;
    int topK_;
    GatePolicy policy_;
    std::vector<double> cumWeights_; //!< Zipf CDF

    void sampleOneToken(Rng &rng,
                        std::vector<std::int64_t> &hist) const;
};

} // namespace duplex

#endif // DUPLEX_WORKLOAD_EXPERTS_HH
