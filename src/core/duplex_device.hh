/**
 * @file
 * The Duplex device (Section IV): an xPU and a low-Op/B engine
 * sharing the same HBM stacks, with Op/B-driven engine selection and
 * optional expert/attention co-processing.
 *
 * The same class also builds Bank-PIM and BankGroup-PIM devices by
 * swapping the low-Op/B engine, which is how Fig. 14 compares them.
 */

#ifndef DUPLEX_CORE_DUPLEX_DEVICE_HH
#define DUPLEX_CORE_DUPLEX_DEVICE_HH

#include <memory>

#include "core/coprocess.hh"
#include "core/lookup.hh"
#include "device/gpu.hh"
#include "device/pim.hh"

namespace duplex
{

/** Duplex device spec: H100-class xPU + Logic-PIM in the stacks. */
HybridDeviceSpec duplexDeviceSpec(const HbmTiming &timing,
                                  const DramCalibration &cal,
                                  bool co_processing);

/** Hybrid device built around a prior-work PIM variant. */
HybridDeviceSpec pimVariantDeviceSpec(PimVariant variant,
                                      const HbmTiming &timing,
                                      const DramCalibration &cal,
                                      bool co_processing);

/** Instantiate the right Device implementation for @p spec. */
std::unique_ptr<Device> makeDevice(const HybridDeviceSpec &spec);

/**
 * A device with both engine classes. Engine selection picks the
 * faster engine per operator group (equivalently: compares the
 * group's Op/B against the engines' ridge points); co-processing
 * runs both engines concurrently on disjoint bank bundles.
 */
class HybridDevice : public Device
{
  public:
    explicit HybridDevice(const HybridDeviceSpec &spec);

    const HybridDeviceSpec &spec() const override { return spec_; }

    DeviceTiming runHighOpb(const OpCost &cost) override;
    AttentionTiming runAttention(const OpCost &decode,
                                 const OpCost &prefill) override;
    DeviceTiming
    runMoeGroups(const std::vector<ExpertWork> &experts,
                 int group_size, double energy_scale) override;

    void setExpertLut(const ExpertTimeLut *lut) override
    {
        lut_ = lut;
    }

    /**
     * Experts routed to the low engine in the last active group of
     * the last MoE call.
     */
    int lastExpertsOnLow() const { return lastExpertsOnLow_; }

  private:
    HybridDeviceSpec spec_;
    EnergyModel energy_;
    const ExpertTimeLut *lut_ = nullptr;
    int lastExpertsOnLow_ = 0;

    // Reused across MoE calls (one per MoE layer per stage).
    ExpertPartition partScratch_;
    std::vector<PicoSec> prefixScratch_;
    std::vector<PicoSec> suffixScratch_;

    DeviceTiming onXpu(const OpCost &cost);
    DeviceTiming onLow(const OpCost &cost);

    /** Faster engine for a whole group (Op/B-driven selection). */
    DeviceTiming onBest(const OpCost &cost);
};

} // namespace duplex

#endif // DUPLEX_CORE_DUPLEX_DEVICE_HH
