#include "device/gpu.hh"

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

void
GpuDevice::priceExpert(std::int64_t tokens, const OpCost &cost,
                       ExpertPrice &out) const
{
    out = {};
    out.tokens = tokens;
    out.xpu = operatorTimeNoOverhead(spec_.xpu, cost.flops, cost.bytes);
    out.xpuE = engineEnergy(spec_.xpuPath, spec_.xpuCls, energy_, cost);
}

DeviceTiming
GpuDevice::runMoeGroups(const std::vector<const ExpertPrice *> &experts,
                        int group_size, double energy_scale)
{
    // Grouped-GEMM execution: one dispatch per group, its experts
    // processed back to back.
    int experts_on_low = 0;
    return runWholeGroups(experts, group_size, energy_scale, spec_.xpu,
                          nullptr, experts_on_low);
}

} // namespace duplex
