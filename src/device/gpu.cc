#include "device/gpu.hh"

#include <algorithm>

namespace duplex
{

EngineSpec
h100Engine(const HbmTiming &timing, const DramCalibration &cal,
           int num_stacks)
{
    EngineSpec e;
    e.name = "xPU";
    e.peakFlops = 990e12;
    e.computeEff = 0.75;
    e.memBps = cal.xpuStackBps(timing) * num_stacks;
    e.dispatchOverhead = 2 * kPsPerUs;
    return e;
}

HybridDeviceSpec
h100DeviceSpec(const HbmTiming &timing, const DramCalibration &cal)
{
    HybridDeviceSpec spec;
    spec.name = "GPU";
    spec.xpu = h100Engine(timing, cal);
    spec.hasLowEngine = false;
    spec.numStacks = 5;
    spec.memCapacity = static_cast<Bytes>(spec.numStacks) * 16 * kGiB;
    return spec;
}

GpuDevice::GpuDevice(const HybridDeviceSpec &spec)
    : spec_(spec), energy_(spec.energyParams)
{
}

DeviceTiming
GpuDevice::runHighOpb(const OpCost &cost)
{
    return engineRun(spec_.xpu, spec_.xpuPath, spec_.xpuCls, energy_,
                     cost);
}

AttentionTiming
GpuDevice::runAttention(const OpCost &decode, const OpCost &prefill)
{
    AttentionTiming t;
    t.decode = engineRun(spec_.xpu, spec_.xpuPath, spec_.xpuCls,
                         energy_, decode);
    t.prefill = engineRun(spec_.xpu, spec_.xpuPath, spec_.xpuCls,
                          energy_, prefill);
    t.composed = t.decode.time + t.prefill.time;
    return t;
}

DeviceTiming
GpuDevice::runMoeGroups(const std::vector<ExpertWork> &experts,
                        int group_size, double energy_scale)
{
    // Grouped-GEMM execution: one dispatch per group, its experts
    // processed back to back. A direct-mapped per-token-count cache
    // is shared across the layer: decode stages repeat small counts
    // heavily, while a collision just recomputes.
    struct Memo
    {
        std::int64_t tokens = -1;
        DeviceTiming t;
    };
    Memo memo[64];
    DeviceTiming total;
    const int num_groups =
        static_cast<int>(experts.size()) / group_size;
    for (int g = 0; g < num_groups; ++g) {
        DeviceTiming group;
        bool any = false;
        for (int i = g * group_size; i < (g + 1) * group_size;
             ++i) {
            const ExpertWork &e = experts[i];
            if (e.tokens == 0)
                continue;
            any = true;
            Memo &m = memo[e.tokens & 63];
            if (m.tokens != e.tokens) {
                m.tokens = e.tokens;
                m.t.time = operatorTimeNoOverhead(
                    spec_.xpu, e.cost.flops, e.cost.bytes);
                m.t.energy.dramJ =
                    energy_.dramEnergyJ(spec_.xpuPath, e.cost.bytes);
                m.t.energy.computeJ = energy_.computeEnergyJ(
                    spec_.xpuCls, e.cost.flops);
            }
            group += m.t;
        }
        if (any)
            group.time += spec_.xpu.dispatchOverhead;
        total.time = std::max(total.time, group.time);
        total.energy.dramJ += group.energy.dramJ * energy_scale;
        total.energy.computeJ +=
            group.energy.computeJ * energy_scale;
    }
    return total;
}

} // namespace duplex
