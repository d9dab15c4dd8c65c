/**
 * @file
 * Expert and attention co-processing (Section V-B).
 *
 * Expert co-processing: experts are sorted by token count; the
 * partitioner progressively assigns the fewest-token experts to
 * Logic-PIM and keeps the split that minimizes the makespan
 * max(time on Logic-PIM, time on xPU) — the paper's lookup-table
 * search, implemented exactly.
 *
 * Attention co-processing: prefill-sequence attention on the xPU
 * concurrent with decode-sequence attention on Logic-PIM.
 */

#ifndef DUPLEX_CORE_COPROCESS_HH
#define DUPLEX_CORE_COPROCESS_HH

#include <vector>

#include "core/lookup.hh"
#include "device/device.hh"

namespace duplex
{

/** Outcome of the expert partition search. */
struct ExpertPartition
{
    /** Experts sorted ascending by token count. */
    std::vector<ExpertWork> sorted;

    /** Experts sorted[0 .. numOnLow) run on the low-Op/B engine. */
    int numOnLow = 0;

    PicoSec lowTime = 0;  //!< makespan contribution of Logic-PIM
    PicoSec xpuTime = 0;  //!< makespan contribution of the xPU

    PicoSec makespan() const { return std::max(lowTime, xpuTime); }
};

/**
 * Search the best prefix split. Zero-token experts are dropped
 * (their weights are never read). Per-side dispatch overheads are
 * charged once per non-empty side.
 *
 * @param experts Per-expert work, any order.
 * @param lut     Expert-time lookup table for both engines.
 * @param xpu     High-Op/B engine (for dispatch overhead).
 * @param low     Low-Op/B engine (for dispatch overhead).
 */
ExpertPartition partitionExperts(const std::vector<ExpertWork> &experts,
                                 const ExpertTimeLut &lut,
                                 const EngineSpec &xpu,
                                 const EngineSpec &low);

/**
 * Range form for the per-layer hot path (one expert-parallel
 * group): fills @p part (clearing its previous contents) and reuses
 * @p prefix_scratch / @p suffix_scratch instead of allocating. Same
 * result as partitionExperts over the range.
 */
void partitionExpertsRange(const ExpertWork *begin,
                           const ExpertWork *end,
                           const ExpertTimeLut &lut,
                           const EngineSpec &xpu,
                           const EngineSpec &low,
                           ExpertPartition &part,
                           std::vector<PicoSec> &prefix_scratch,
                           std::vector<PicoSec> &suffix_scratch);

/**
 * Attention co-processing composition: both groups run concurrently,
 * so the layer takes the slower of the two.
 */
inline PicoSec
coProcessedAttentionTime(PicoSec low_decode, PicoSec xpu_prefill)
{
    return std::max(low_decode, xpu_prefill);
}

} // namespace duplex

#endif // DUPLEX_CORE_COPROCESS_HH
