#include "sim/presets.hh"

#include "common/log.hh"

namespace duplex
{

namespace
{

const ClusterPreset kClusterPresets[] = {
    {"gpu", "GPU", "H100-class baseline, 4-8 devices per node",
     h100DeviceSpec, false, false},
    {"gpu-2x", "2xGPU", "GPU baseline with twice the devices",
     h100DeviceSpec, true, false},
    {"duplex", "Duplex", "Logic-PIM low engine, Op/B-driven selection",
     [](const HbmTiming &timing, const DramCalibration &cal) {
         return duplexDeviceSpec(timing, cal, false);
     },
     false, false},
    {"duplex-pe", "Duplex+PE", "Duplex + expert/attention co-processing",
     [](const HbmTiming &timing, const DramCalibration &cal) {
         return duplexDeviceSpec(timing, cal, true);
     },
     false, false},
    {"duplex-pe-et", "Duplex+PE+ET",
     "Duplex + co-processing + tensor-parallel experts",
     [](const HbmTiming &timing, const DramCalibration &cal) {
         return duplexDeviceSpec(timing, cal, true);
     },
     false, true},
    {"bank-pim", "Bank-PIM", "hybrid device with a Bank-PIM low engine",
     [](const HbmTiming &timing, const DramCalibration &cal) {
         return pimVariantDeviceSpec(PimVariant::BankPim, timing, cal,
                                     true);
     },
     false, true},
    {"bankgroup-pim", "BankGroup-PIM",
     "hybrid device with a BankGroup-PIM low engine",
     [](const HbmTiming &timing, const DramCalibration &cal) {
         return pimVariantDeviceSpec(PimVariant::BankGroupPim, timing,
                                     cal, true);
     },
     false, true},
};

} // namespace

std::span<const ClusterPreset>
clusterPresets()
{
    return kClusterPresets;
}

SystemTopology
defaultTopology(const ModelConfig &model, bool doubled)
{
    SystemTopology topo;
    int devices = 4;
    if (model.name == "GLaM")
        devices = 8;
    else if (model.name == "Grok1")
        devices = 16;
    if (doubled)
        devices *= 2;
    topo.devicesPerNode = std::min(devices, 8);
    topo.numNodes = (devices + 7) / 8;
    return topo;
}

ClusterConfig
makeClusterConfig(const std::string &system_id,
                  const ModelConfig &model, std::uint64_t seed)
{
    for (const ClusterPreset &preset : clusterPresets()) {
        if (system_id != preset.id)
            continue;
        ClusterConfig cfg;
        cfg.model = model;
        cfg.seed = seed;
        cfg.topo = defaultTopology(model, preset.doubled);
        cfg.deviceSpec =
            preset.deviceSpec(hbm3Timing(), hbm3Calibration());
        cfg.expertPlacement =
            preset.expertTensorParallel && model.numExperts > 0
                ? ExpertPlacement::ExpertTensorParallel
                : ExpertPlacement::ExpertParallel;
        return cfg;
    }
    fatal("makeClusterConfig: no homogeneous cluster config for '" +
          system_id + "'");
}

HeteroConfig
makeHeteroConfig(const ModelConfig &model, std::uint64_t seed)
{
    const HbmTiming timing = hbm3Timing();
    const DramCalibration cal = hbm3Calibration();

    HeteroConfig cfg;
    cfg.model = model;
    cfg.seed = seed;
    cfg.numGpus = 2;
    cfg.numPimDevices = 2;
    cfg.gpuSpec = h100DeviceSpec(timing, cal);
    cfg.pimSpec = duplexDeviceSpec(timing, cal, false);
    cfg.link = SystemTopology{}.intraNode;
    return cfg;
}

} // namespace duplex
