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
    void priceExpert(std::int64_t tokens, const OpCost &cost,
                     ExpertPrice &out) const override;
    DeviceTiming
    runMoeGroups(const std::vector<const ExpertPrice *> &experts,
                 int group_size, double energy_scale) override;

  private:
    HybridDeviceSpec spec_;
    EnergyModel energy_;
};

} // namespace duplex

#endif // DUPLEX_DEVICE_GPU_HH
