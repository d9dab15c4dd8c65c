/**
 * @file
 * Device abstraction: a package that executes operator groups.
 *
 * Every device owns a high-Op/B engine (the xPU); hybrid devices
 * (Duplex, Bank-PIM, BankGroup-PIM builds) add a low-Op/B engine
 * inside the memory stacks. The cluster hands devices per-shard
 * operator costs; devices answer with time and energy.
 */

#ifndef DUPLEX_DEVICE_DEVICE_HH
#define DUPLEX_DEVICE_DEVICE_HH

#include <memory>
#include <string>
#include <vector>

#include "compute/engine.hh"
#include "energy/energy.hh"
#include "model/layers.hh"

namespace duplex
{

/** Full description of one device package. */
struct HybridDeviceSpec
{
    std::string name = "device";

    // High-Op/B engine (always present).
    EngineSpec xpu;
    DramPath xpuPath = DramPath::XpuInterposer;
    ComputeClass xpuCls = ComputeClass::Xpu;

    // Low-Op/B engine (absent on plain GPUs).
    bool hasLowEngine = false;
    EngineSpec low;
    DramPath lowPath = DramPath::LogicDie;
    ComputeClass lowCls = ComputeClass::LogicPim;

    /** HBM capacity of the package. */
    Bytes memCapacity = 0;

    /** Number of HBM stacks. */
    int numStacks = 5;

    /** Expert and attention co-processing enabled (Duplex+PE). */
    bool coProcessing = false;

    EnergyParams energyParams;
};

/** Result of executing one operator group on a device. */
struct DeviceTiming
{
    PicoSec time = 0;
    EnergyBreakdown energy;

    DeviceTiming &operator+=(const DeviceTiming &other)
    {
        time += other.time;
        energy += other.energy;
        return *this;
    }
};

/** One expert FFN's per-device work in an MoE layer. */
struct ExpertWork
{
    std::int64_t tokens = 0;
    OpCost cost; //!< per-device shard, weights + activations
};

/**
 * One expert FFN's price at one token count on each engine of a
 * device, dispatch overhead excluded (the low-engine fields stay
 * zero without a low engine). Device::priceExpert fills it as a pure
 * function of the token count, so a cluster caches it by that count.
 */
struct ExpertPrice
{
    std::int64_t tokens = -1; //!< -1 marks an empty cache entry
    PicoSec xpu = 0;
    PicoSec low = 0;
    EnergyBreakdown xpuE;
    EnergyBreakdown lowE;
};

/**
 * The price of every expert without tokens: all zero, so group sums
 * may add it without a branch (x + 0.0 == x for the non-negative
 * energies).
 */
inline constexpr ExpertPrice kIdleExpert{0, 0, 0, {}, {}};

/**
 * Attention-layer timing with the decode/prefill split preserved;
 * composed is the wall-clock contribution (max of both halves when
 * co-processed, their sum otherwise).
 */
struct AttentionTiming
{
    DeviceTiming decode;
    DeviceTiming prefill;
    PicoSec composed = 0;
};

class ExpertTimeLut; // core/lookup.hh

/** Executes operator groups; implemented by GPU and hybrid devices. */
class Device
{
  public:
    virtual ~Device() = default;

    virtual const HybridDeviceSpec &spec() const = 0;

    /** High-Op/B work: QKV gen, projection, dense FFN, LM head. */
    virtual DeviceTiming runHighOpb(const OpCost &cost) = 0;

    /**
     * Attention layer: decode-sequence and prefill-sequence groups.
     * Hybrid devices may co-process them (Section V-B).
     */
    virtual AttentionTiming runAttention(const OpCost &decode,
                                         const OpCost &prefill) = 0;

    /**
     * Price one expert's FFN over @p tokens tokens, @p cost being
     * its per-device shard. Co-processing devices take their times
     * from the expert-time lookup table, as the partition search
     * does (Section V-B).
     */
    virtual void priceExpert(std::int64_t tokens, const OpCost &cost,
                             ExpertPrice &out) const = 0;

    /**
     * Whole MoE layer over contiguous groups of @p group_size
     * experts (one group per expert-parallel device / ET shard),
     * from one priced entry per expert (kIdleExpert for experts
     * without tokens: their weights are never read). Each group is
     * priced alone, and a group with no tokens is free. The layer's
     * time is the makespan (max group time), and its energy is the
     * in-order sum of each group's energy times @p energy_scale.
     */
    virtual DeviceTiming
    runMoeGroups(const std::vector<const ExpertPrice *> &experts,
                 int group_size, double energy_scale) = 0;

    /**
     * runMoeGroups over work priced through priceExpert, in groups
     * of @p group_size (default: one group); an empty list is free.
     */
    DeviceTiming runMoe(const std::vector<ExpertWork> &experts,
                        int group_size = 0,
                        double energy_scale = 1.0);

    /** Install the expert-time lookup table (hybrid devices). */
    virtual void setExpertLut(const ExpertTimeLut *lut) { (void)lut; }
};

/** Timing + energy of one group on a specific engine. */
DeviceTiming engineRun(const EngineSpec &engine, DramPath path,
                       ComputeClass cls, const EnergyModel &energy,
                       const OpCost &cost);

/** DRAM and compute energy of @p cost on one engine's path. */
inline EnergyBreakdown
engineEnergy(DramPath path, ComputeClass cls, const EnergyModel &energy,
             const OpCost &cost)
{
    return {energy.dramEnergyJ(path, cost.bytes),
            energy.computeEnergyJ(cls, cost.flops)};
}

/**
 * runMoeGroups without co-processing: each group runs whole on the
 * engine with the lower summed expert times plus dispatch overhead,
 * the xPU when @p low is null. @p experts_on_low is the last group's
 * count of experts on the low engine (zero when that group is idle).
 */
DeviceTiming runWholeGroups(const std::vector<const ExpertPrice *> &experts,
                            int group_size, double energy_scale,
                            const EngineSpec &xpu, const EngineSpec *low,
                            int &experts_on_low);

} // namespace duplex

#endif // DUPLEX_DEVICE_DEVICE_HH
