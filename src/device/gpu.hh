/**
 * @file
 * Baseline GPU device (NVIDIA H100-class, Section VI).
 *
 * 990 TFLOPS dense FP16, five HBM3 stacks (80 GB), memory bandwidth
 * taken from the calibrated cycle-level DRAM model rather than the
 * datasheet peak.
 */

#ifndef DUPLEX_DEVICE_GPU_HH
#define DUPLEX_DEVICE_GPU_HH

#include "device/device.hh"
#include "dram/calibration.hh"

namespace duplex
{

/** Build the H100-class xPU engine from the DRAM calibration. */
EngineSpec h100Engine(const HbmTiming &timing,
                      const DramCalibration &cal, int num_stacks = 5);

/** Full H100-class device spec (no low-Op/B engine). */
HybridDeviceSpec h100DeviceSpec(const HbmTiming &timing,
                                const DramCalibration &cal);

/** Plain GPU: everything runs on the xPU engine. */
class GpuDevice : public Device
{
  public:
    explicit GpuDevice(const HybridDeviceSpec &spec);

    const HybridDeviceSpec &spec() const override { return spec_; }

    DeviceTiming runHighOpb(const OpCost &cost) override;
    AttentionTiming runAttention(const OpCost &decode,
                                 const OpCost &prefill) override;
    DeviceTiming
    runMoeGroups(const std::vector<ExpertWork> &experts,
                 int group_size, double energy_scale) override;

  private:
    HybridDeviceSpec spec_;
    EnergyModel energy_;

    /** runMoeGroups' per-token-count cache; an entry is valid only
     *  in the call whose generation it carries. Sized on the first
     *  MoE layer, so a dense model's device never holds it. */
    struct MoeMemo
    {
        std::uint64_t generation = 0;
        std::int64_t tokens = -1;
        DeviceTiming t;
    };
    std::vector<MoeMemo> moeMemo_;
    std::uint64_t memoGeneration_ = 0;
};

} // namespace duplex

#endif // DUPLEX_DEVICE_GPU_HH
