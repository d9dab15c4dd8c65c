#include "core/duplex_device.hh"

#include <algorithm>

#include "common/log.hh"

namespace duplex
{

HybridDeviceSpec
duplexDeviceSpec(const HbmTiming &timing, const DramCalibration &cal,
                 bool co_processing)
{
    return pimVariantDeviceSpec(PimVariant::LogicPim, timing, cal,
                                co_processing);
}

HybridDeviceSpec
pimVariantDeviceSpec(PimVariant variant, const HbmTiming &timing,
                     const DramCalibration &cal, bool co_processing)
{
    HybridDeviceSpec spec = h100DeviceSpec(timing, cal);
    spec.name = std::string("Duplex(") + pimVariantName(variant) + ")";
    spec.hasLowEngine = true;
    switch (variant) {
      case PimVariant::LogicPim:
        spec.low = logicPimEngine(timing, cal, spec.numStacks);
        break;
      case PimVariant::BankPim:
        spec.low = bankPimEngine(timing, cal, spec.numStacks);
        break;
      case PimVariant::BankGroupPim:
        spec.low = bankGroupPimEngine(timing, cal, spec.numStacks);
        break;
      default:
        panic("unknown PIM variant");
    }
    spec.lowPath = pimVariantPath(variant);
    spec.lowCls = pimVariantClass(variant);
    spec.coProcessing = co_processing;
    return spec;
}

std::unique_ptr<Device>
makeDevice(const HybridDeviceSpec &spec)
{
    if (spec.hasLowEngine)
        return std::make_unique<HybridDevice>(spec);
    return std::make_unique<GpuDevice>(spec);
}

HybridDevice::HybridDevice(const HybridDeviceSpec &spec)
    : spec_(spec), energy_(spec.energyParams)
{
    panicIf(!spec_.hasLowEngine,
            "HybridDevice requires a low-Op/B engine");
}

DeviceTiming
HybridDevice::onXpu(const OpCost &cost)
{
    return engineRun(spec_.xpu, spec_.xpuPath, spec_.xpuCls, energy_,
                     cost);
}

DeviceTiming
HybridDevice::onLow(const OpCost &cost)
{
    return engineRun(spec_.low, spec_.lowPath, spec_.lowCls, energy_,
                     cost);
}

DeviceTiming
HybridDevice::onBest(const OpCost &cost)
{
    if (cost.flops <= 0.0 && cost.bytes == 0)
        return {};
    const PicoSec t_xpu =
        operatorTime(spec_.xpu, cost.flops, cost.bytes);
    const PicoSec t_low =
        operatorTime(spec_.low, cost.flops, cost.bytes);
    return t_low < t_xpu ? onLow(cost) : onXpu(cost);
}

DeviceTiming
HybridDevice::runHighOpb(const OpCost &cost)
{
    return onXpu(cost);
}

AttentionTiming
HybridDevice::runAttention(const OpCost &decode, const OpCost &prefill)
{
    const bool have_decode = decode.bytes > 0 || decode.flops > 0.0;
    const bool have_prefill =
        prefill.bytes > 0 || prefill.flops > 0.0;

    AttentionTiming t;
    if (spec_.coProcessing && have_decode && have_prefill) {
        // Decode attention on the low engine concurrent with
        // prefill attention on the xPU (Section V-B).
        t.decode = onLow(decode);
        t.prefill = onXpu(prefill);
        t.composed =
            coProcessedAttentionTime(t.decode.time, t.prefill.time);
        return t;
    }

    if (have_decode)
        t.decode = onBest(decode);
    if (have_prefill)
        t.prefill = onBest(prefill);
    t.composed = t.decode.time + t.prefill.time;
    return t;
}

void
HybridDevice::priceExpert(std::int64_t tokens, const OpCost &cost,
                          ExpertPrice &out) const
{
    out.tokens = tokens;
    if (spec_.coProcessing && lut_ != nullptr) {
        out.xpu = lut_->xpuTime(tokens);
        out.low = lut_->lowTime(tokens);
    } else {
        out.xpu =
            operatorTimeNoOverhead(spec_.xpu, cost.flops, cost.bytes);
        out.low =
            operatorTimeNoOverhead(spec_.low, cost.flops, cost.bytes);
    }
    out.xpuE = engineEnergy(spec_.xpuPath, spec_.xpuCls, energy_, cost);
    out.lowE = engineEnergy(spec_.lowPath, spec_.lowCls, energy_, cost);
}

DeviceTiming
HybridDevice::runMoeGroups(const std::vector<const ExpertPrice *> &experts,
                           int group_size, double energy_scale)
{
    // Engine selection per group: expert co-processing splits the
    // group between the engines by the lookup table; otherwise the
    // whole group runs on the faster engine by total time.
    if (!spec_.coProcessing || lut_ == nullptr)
        return runWholeGroups(experts, group_size, energy_scale,
                              spec_.xpu, &spec_.low,
                              lastExpertsOnLow_);

    const int num_groups =
        static_cast<int>(experts.size()) / group_size;
    DeviceTiming total;
    for (int g = 0; g < num_groups; ++g) {
        const ExpertPrice *const *begin =
            experts.data() + g * group_size;
        partitionExpertsRange(begin, begin + group_size, spec_.xpu,
                              spec_.low, partScratch_);
        const ExpertPartition &part = partScratch_;
        lastExpertsOnLow_ = part.numOnLow;
        if (part.sorted.empty())
            continue;
        // Energy in ascending-token order, each expert on its side.
        DeviceTiming group;
        group.time = part.makespan();
        const int n = static_cast<int>(part.sorted.size());
        for (int i = 0; i < part.numOnLow; ++i)
            group.energy += part.sorted[i]->lowE;
        for (int i = part.numOnLow; i < n; ++i)
            group.energy += part.sorted[i]->xpuE;
        total.time = std::max(total.time, group.time);
        total.energy.dramJ += group.energy.dramJ * energy_scale;
        total.energy.computeJ +=
            group.energy.computeJ * energy_scale;
    }
    return total;
}

} // namespace duplex
