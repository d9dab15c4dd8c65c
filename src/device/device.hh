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
     * Whole MoE layer over contiguous groups of @p group_size
     * experts (one group per expert-parallel device / ET shard).
     * Each group is priced alone: experts with zero tokens are not
     * touched (their weights are never read) and a group with no
     * tokens is free. The layer's time is the makespan (max group
     * time), and its energy is the in-order sum of each group's
     * energy times @p energy_scale. One call per layer lets devices
     * share per-token-count memoization across groups.
     */
    virtual DeviceTiming
    runMoeGroups(const std::vector<ExpertWork> &experts,
                 int group_size, double energy_scale) = 0;

    /** MoE work priced as one group; an empty list is free. */
    DeviceTiming runMoe(const std::vector<ExpertWork> &experts)
    {
        if (experts.empty())
            return {};
        return runMoeGroups(experts, static_cast<int>(experts.size()),
                            1.0);
    }

    /** Install the expert-time lookup table (hybrid devices). */
    virtual void setExpertLut(const ExpertTimeLut *lut) { (void)lut; }
};

/** Timing + energy of one group on a specific engine. */
DeviceTiming engineRun(const EngineSpec &engine, DramPath path,
                       ComputeClass cls, const EnergyModel &energy,
                       const OpCost &cost);

} // namespace duplex

#endif // DUPLEX_DEVICE_DEVICE_HH
