#include "device/device.hh"

#include <algorithm>

namespace duplex
{

DeviceTiming
Device::runMoe(const std::vector<ExpertWork> &experts, int group_size,
               double energy_scale)
{
    if (experts.empty())
        return {};
    std::vector<ExpertPrice> prices(experts.size(), kIdleExpert);
    std::vector<const ExpertPrice *> entries;
    for (std::size_t i = 0; i < experts.size(); ++i) {
        if (experts[i].tokens != 0)
            priceExpert(experts[i].tokens, experts[i].cost, prices[i]);
        entries.push_back(&prices[i]);
    }
    return runMoeGroups(entries,
                        group_size > 0
                            ? group_size
                            : static_cast<int>(experts.size()),
                        energy_scale);
}

DeviceTiming
engineRun(const EngineSpec &engine, DramPath path, ComputeClass cls,
          const EnergyModel &energy, const OpCost &cost)
{
    DeviceTiming t;
    if (cost.flops <= 0.0 && cost.bytes == 0)
        return t;
    t.time = operatorTime(engine, cost.flops, cost.bytes);
    t.energy = engineEnergy(path, cls, energy, cost);
    return t;
}

DeviceTiming
runWholeGroups(const std::vector<const ExpertPrice *> &experts,
               int group_size, double energy_scale,
               const EngineSpec &xpu, const EngineSpec *low,
               int &experts_on_low)
{
    DeviceTiming total;
    const int num_groups =
        static_cast<int>(experts.size()) / group_size;
    for (int g = 0; g < num_groups; ++g) {
        const ExpertPrice *const *begin =
            experts.data() + g * group_size;
        // One pass without a branch per expert: an idle expert's
        // zero prices add nothing, even to the float sums.
        int num_active = 0;
        PicoSec t_xpu = xpu.dispatchOverhead;
        PicoSec t_low = low ? low->dispatchOverhead : 0;
        EnergyBreakdown e_xpu;
        EnergyBreakdown e_low;
        for (int i = 0; i < group_size; ++i) {
            num_active += begin[i]->tokens != 0;
            t_xpu += begin[i]->xpu;
            t_low += begin[i]->low;
            e_xpu += begin[i]->xpuE;
            e_low += begin[i]->lowE;
        }
        experts_on_low = 0;
        if (num_active == 0)
            continue;
        const bool use_low = low && t_low < t_xpu;
        if (use_low)
            experts_on_low = num_active;
        const DeviceTiming group{use_low ? t_low : t_xpu,
                                 use_low ? e_low : e_xpu};
        total.time = std::max(total.time, group.time);
        total.energy.dramJ += group.energy.dramJ * energy_scale;
        total.energy.computeJ +=
            group.energy.computeJ * energy_scale;
    }
    return total;
}

} // namespace duplex
