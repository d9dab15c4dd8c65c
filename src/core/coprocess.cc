#include "core/coprocess.hh"

#include <algorithm>

#include "common/log.hh"

namespace duplex
{

ExpertPartition
partitionExperts(const std::vector<ExpertWork> &experts,
                 const ExpertTimeLut &lut, const EngineSpec &xpu,
                 const EngineSpec &low)
{
    ExpertPartition part;
    std::vector<PicoSec> prefix;
    std::vector<PicoSec> suffix;
    partitionExpertsRange(experts.data(),
                          experts.data() + experts.size(), lut, xpu,
                          low, part, prefix, suffix);
    return part;
}

void
partitionExpertsRange(const ExpertWork *begin, const ExpertWork *end,
                      const ExpertTimeLut &lut, const EngineSpec &xpu,
                      const EngineSpec &low, ExpertPartition &part,
                      std::vector<PicoSec> &prefix_scratch,
                      std::vector<PicoSec> &suffix_scratch)
{
    part.sorted.clear();
    part.numOnLow = 0;
    part.lowTime = 0;
    part.xpuTime = 0;
    part.sorted.reserve(static_cast<std::size_t>(end - begin));
    for (const ExpertWork *e = begin; e != end; ++e)
        if (e->tokens > 0)
            part.sorted.push_back(*e);

    const int n = static_cast<int>(part.sorted.size());
    if (n == 0)
        return;

    // Ascending by token count. Ties carry identical costs and LUT
    // times, so any tie order yields the same split and sums;
    // insertion sort beats std::sort at MoE group sizes.
    if (n <= 16) {
        for (int i = 1; i < n; ++i) {
            const ExpertWork key = part.sorted[i];
            int j = i - 1;
            while (j >= 0 && part.sorted[j].tokens > key.tokens) {
                part.sorted[j + 1] = part.sorted[j];
                --j;
            }
            part.sorted[j + 1] = key;
        }
    } else {
        std::sort(part.sorted.begin(), part.sorted.end(),
                  [](const ExpertWork &a, const ExpertWork &b) {
                      return a.tokens < b.tokens;
                  });
    }

    // Prefix sums of low-engine times and suffix sums of xPU times.
    std::vector<PicoSec> &low_prefix = prefix_scratch;
    std::vector<PicoSec> &xpu_suffix = suffix_scratch;
    low_prefix.assign(n + 1, 0);
    xpu_suffix.assign(n + 1, 0);
    for (int i = 0; i < n; ++i) {
        low_prefix[i + 1] =
            low_prefix[i] + lut.lowTime(part.sorted[i].tokens);
    }
    for (int i = n - 1; i >= 0; --i) {
        xpu_suffix[i] =
            xpu_suffix[i + 1] + lut.xpuTime(part.sorted[i].tokens);
    }

    PicoSec best = -1;
    int best_split = 0;
    PicoSec best_low = 0;
    PicoSec best_xpu = 0;
    for (int split = 0; split <= n; ++split) {
        const PicoSec t_low =
            split > 0 ? low_prefix[split] + low.dispatchOverhead : 0;
        const PicoSec t_xpu =
            split < n ? xpu_suffix[split] + xpu.dispatchOverhead : 0;
        const PicoSec makespan = std::max(t_low, t_xpu);
        if (best < 0 || makespan < best) {
            best = makespan;
            best_split = split;
            best_low = t_low;
            best_xpu = t_xpu;
        }
    }
    part.numOnLow = best_split;
    part.lowTime = best_low;
    part.xpuTime = best_xpu;
}

} // namespace duplex
