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

DeviceTiming
HybridDevice::runMoeGroups(const std::vector<ExpertWork> &experts,
                           int group_size, double energy_scale)
{
    // Engine selection per group: expert co-processing splits the
    // group between the engines by the lookup table; otherwise the
    // whole group runs on the faster engine by total time.
    const int num_groups =
        static_cast<int>(experts.size()) / group_size;
    DeviceTiming total;

    if (spec_.coProcessing && lut_ != nullptr) {
        for (int g = 0; g < num_groups; ++g) {
            const ExpertWork *begin = experts.data() + g * group_size;
            bool group_active = false;
            for (int i = 0; i < group_size; ++i) {
                if (begin[i].tokens > 0) {
                    group_active = true;
                    break;
                }
            }
            if (!group_active) {
                lastExpertsOnLow_ = 0;
                continue;
            }
            partitionExpertsRange(begin, begin + group_size, *lut_,
                                  spec_.xpu, spec_.low, partScratch_,
                                  prefixScratch_, suffixScratch_);
            const ExpertPartition &part = partScratch_;
            lastExpertsOnLow_ = part.numOnLow;
            DeviceTiming group;
            group.time = part.makespan();
            for (int i = 0;
                 i < static_cast<int>(part.sorted.size()); ++i) {
                const auto &e = part.sorted[i];
                if (i < part.numOnLow) {
                    group.energy.dramJ += energy_.dramEnergyJ(
                        spec_.lowPath, e.cost.bytes);
                    group.energy.computeJ += energy_.computeEnergyJ(
                        spec_.lowCls, e.cost.flops);
                } else {
                    group.energy.dramJ += energy_.dramEnergyJ(
                        spec_.xpuPath, e.cost.bytes);
                    group.energy.computeJ += energy_.computeEnergyJ(
                        spec_.xpuCls, e.cost.flops);
                }
            }
            total.time = std::max(total.time, group.time);
            total.energy.dramJ += group.energy.dramJ * energy_scale;
            total.energy.computeJ +=
                group.energy.computeJ * energy_scale;
        }
        return total;
    }

    // Direct-mapped per-token-count cache shared across the layer:
    // decode stages repeat small counts heavily; a collision just
    // recomputes.
    struct Memo
    {
        std::int64_t tokens = -1;
        PicoSec xpu;
        PicoSec low;
        EnergyBreakdown xpuE;
        EnergyBreakdown lowE;
    };
    Memo memo[64];
    auto lookup = [&](const ExpertWork &e) -> const Memo & {
        Memo &m = memo[e.tokens & 63];
        if (m.tokens != e.tokens) {
            m.tokens = e.tokens;
            m.xpu = operatorTimeNoOverhead(spec_.xpu, e.cost.flops,
                                           e.cost.bytes);
            m.low = operatorTimeNoOverhead(spec_.low, e.cost.flops,
                                           e.cost.bytes);
            m.xpuE = {energy_.dramEnergyJ(spec_.xpuPath,
                                          e.cost.bytes),
                      energy_.computeEnergyJ(spec_.xpuCls,
                                             e.cost.flops)};
            m.lowE = {energy_.dramEnergyJ(spec_.lowPath,
                                          e.cost.bytes),
                      energy_.computeEnergyJ(spec_.lowCls,
                                             e.cost.flops)};
        }
        return m;
    };

    for (int g = 0; g < num_groups; ++g) {
        lastExpertsOnLow_ = 0;
        int num_active = 0;
        PicoSec t_xpu = spec_.xpu.dispatchOverhead;
        PicoSec t_low = spec_.low.dispatchOverhead;
        for (int i = g * group_size; i < (g + 1) * group_size;
             ++i) {
            const ExpertWork &e = experts[i];
            if (e.tokens == 0)
                continue;
            ++num_active;
            const Memo &m = lookup(e);
            t_xpu += m.xpu;
            t_low += m.low;
        }
        if (num_active == 0)
            continue;
        const bool use_low = t_low < t_xpu;
        if (use_low)
            lastExpertsOnLow_ = num_active;
        DeviceTiming group;
        group.time = use_low ? t_low : t_xpu;
        for (int i = g * group_size; i < (g + 1) * group_size;
             ++i) {
            const ExpertWork &e = experts[i];
            if (e.tokens == 0)
                continue;
            const Memo &m = lookup(e);
            group.energy += use_low ? m.lowE : m.xpuE;
        }
        total.time = std::max(total.time, group.time);
        total.energy.dramJ += group.energy.dramJ * energy_scale;
        total.energy.computeJ +=
            group.energy.computeJ * energy_scale;
    }
    return total;
}

} // namespace duplex
