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
     * once per MoE layer with a reused scratch histogram. The
     * uniform top-2 gate runs a kernel specialised on the expert
     * count (8 and 64, the paper models' gates).
     */
    void sampleInto(Rng &rng, std::int64_t tokens,
                    std::vector<std::int64_t> &hist) const;

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
