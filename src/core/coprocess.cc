#include "core/coprocess.hh"

#include <cstdint>

namespace duplex
{

ExpertPartition
partitionExperts(const std::vector<ExpertPrice> &experts,
                 const EngineSpec &xpu, const EngineSpec &low)
{
    std::vector<const ExpertPrice *> entries;
    for (const ExpertPrice &e : experts)
        entries.push_back(&e);
    ExpertPartition part;
    partitionExpertsRange(entries.data(), entries.data() + entries.size(),
                          xpu, low, part);
    return part;
}

void
partitionExpertsRange(const ExpertPrice *const *begin,
                      const ExpertPrice *const *end,
                      const EngineSpec &xpu, const EngineSpec &low,
                      ExpertPartition &part)
{
    // Gather the experts with tokens without a branch per expert: a
    // decode layer's idle experts fall at random.
    std::vector<const ExpertPrice *> &sorted = part.sorted;
    sorted.resize(static_cast<std::size_t>(end - begin));
    int n = 0;
    std::int64_t max_tokens = 0;
    PicoSec xpu_rest = 0;
    for (const ExpertPrice *const *e = begin; e != end; ++e) {
        const bool active = (*e)->tokens > 0;
        sorted[n] = *e;
        n += active;
        xpu_rest += active ? (*e)->xpu : 0;
        max_tokens = std::max(max_tokens, (*e)->tokens);
    }
    sorted.resize(static_cast<std::size_t>(n));

    // Ascending by token count. Ties carry identical prices, so any
    // tie order yields the same split and sums. A small group ranks
    // each expert without a data-dependent branch; a wide group of
    // small counts (a decode layer's) sorts by counting.
    if (n <= 16) {
        std::uint64_t key[16];
        const ExpertPrice *from[16];
        for (int i = 0; i < n; ++i) {
            key[i] = static_cast<std::uint64_t>(sorted[i]->tokens) << 4 | i;
            from[i] = sorted[i];
        }
        for (int i = 0; i < n; ++i) {
            int rank = 0;
            for (int j = 0; j < n; ++j)
                rank += key[j] < key[i];
            sorted[rank] = from[i];
        }
    } else if (max_tokens <= 4 * n) {
        std::vector<int> &start = part.countScratch;
        start.assign(static_cast<std::size_t>(max_tokens) + 2, 0);
        for (const ExpertPrice *p : sorted)
            ++start[p->tokens + 1];
        for (std::size_t t = 1; t < start.size(); ++t)
            start[t] += start[t - 1];
        part.sortScratch.resize(sorted.size());
        for (const ExpertPrice *p : sorted)
            part.sortScratch[start[p->tokens]++] = p;
        sorted.swap(part.sortScratch);
    } else {
        std::sort(sorted.begin(), sorted.end(),
                  [](const ExpertPrice *a, const ExpertPrice *b) {
                      return a->tokens < b->tokens;
                  });
    }

    // Integer picoseconds: the running low-engine prefix and xPU
    // suffix are exact in any summation order.
    part.numOnLow = 0;
    part.lowTime = 0;
    part.xpuTime = 0;
    PicoSec low_prefix = 0;
    PicoSec best = -1;
    for (int split = 0; n > 0 && split <= n; ++split) {
        const PicoSec t_low =
            split > 0 ? low_prefix + low.dispatchOverhead : 0;
        const PicoSec t_xpu =
            split < n ? xpu_rest + xpu.dispatchOverhead : 0;
        const PicoSec makespan = std::max(t_low, t_xpu);
        if (best < 0 || makespan < best) {
            best = makespan;
            part.numOnLow = split;
            part.lowTime = t_low;
            part.xpuTime = t_xpu;
        }
        if (split < n) {
            low_prefix += sorted[split]->low;
            xpu_rest -= sorted[split]->xpu;
        }
    }
}

} // namespace duplex
