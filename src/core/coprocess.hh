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

#include <algorithm>
#include <vector>

#include "device/device.hh"

namespace duplex
{

/** Outcome of the expert partition search over one group. */
struct ExpertPartition
{
    /** Experts with tokens, sorted ascending by token count. */
    std::vector<const ExpertPrice *> sorted;

    /** Experts sorted[0 .. numOnLow) run on the low-Op/B engine. */
    int numOnLow = 0;

    PicoSec lowTime = 0;  //!< makespan contribution of Logic-PIM
    PicoSec xpuTime = 0;  //!< makespan contribution of the xPU

    PicoSec makespan() const { return std::max(lowTime, xpuTime); }

    /** Counting-sort storage, reused across calls. */
    std::vector<int> countScratch;
    std::vector<const ExpertPrice *> sortScratch;
};

/**
 * Search the best prefix split of one group's priced experts
 * (pointers into the caller's entries), filling @p part and reusing
 * its storage. Zero-token experts are dropped (their weights are
 * never read). Per-side dispatch overheads are charged once per
 * non-empty side; ties keep the smallest split.
 *
 * @param xpu High-Op/B engine (for dispatch overhead).
 * @param low Low-Op/B engine (for dispatch overhead).
 */
void partitionExpertsRange(const ExpertPrice *const *begin,
                           const ExpertPrice *const *end,
                           const EngineSpec &xpu,
                           const EngineSpec &low,
                           ExpertPartition &part);

/** partitionExpertsRange over every entry of @p experts. */
ExpertPartition partitionExperts(const std::vector<ExpertPrice> &experts,
                                 const EngineSpec &xpu,
                                 const EngineSpec &low);

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
