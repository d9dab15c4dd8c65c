/**
 * @file
 * Expert-time lookup table (Section V-B).
 *
 * "Duplex preliminarily estimates and stores the processing times
 * for experts in both xPU and Logic-PIM, depending on the number of
 * processed tokens. At runtime, Duplex uses this lookup table to
 * determine which experts to process in Logic-PIM."
 *
 * Expert FFN cost is affine in the token count (constant weight
 * traffic plus per-token activations), so the table's cost function
 * is rebuilt from two probe costs and answers any token count on
 * demand. The stored table is the cluster's per-token-count expert
 * price cache (ExpertPriceCache in cluster/cluster.hh), which a
 * co-processing device fills lazily from these times.
 */

#ifndef DUPLEX_CORE_LOOKUP_HH
#define DUPLEX_CORE_LOOKUP_HH

#include "compute/engine.hh"
#include "model/layers.hh"

namespace duplex
{

/** Expert-FFN times on both engines of a device. */
class ExpertTimeLut
{
  public:
    /**
     * @param xpu      High-Op/B engine.
     * @param low      Low-Op/B engine.
     * @param cost_one Expert cost at one token (per-device shard).
     * @param cost_two Expert cost at two tokens.
     */
    ExpertTimeLut(const EngineSpec &xpu, const EngineSpec &low,
                  const OpCost &cost_one, const OpCost &cost_two);

    /** Expert cost model: affine reconstruction. */
    OpCost expertCost(std::int64_t tokens) const;

    /** Time on the high-Op/B engine, no dispatch overhead. */
    PicoSec xpuTime(std::int64_t tokens) const;

    /** Time on the low-Op/B engine, no dispatch overhead. */
    PicoSec lowTime(std::int64_t tokens) const;

  private:
    EngineSpec xpu_;
    EngineSpec low_;
    OpCost base_;     //!< cost at zero tokens (weight traffic)
    OpCost perToken_; //!< marginal cost per token
};

} // namespace duplex

#endif // DUPLEX_CORE_LOOKUP_HH
