/**
 * @file
 * Duplex hybrid-device tests: Op/B-driven engine selection and
 * co-processing behaviour (Sections IV-D, V-B).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/duplex_device.hh"
#include "workload/experts.hh"

namespace duplex
{
namespace
{

class DuplexDeviceTest : public ::testing::Test
{
  protected:
    HbmTiming timing = hbm3Timing();
    const DramCalibration &cal = cachedCalibration();
    LayerCosts costs{mixtralConfig()};

    HybridDeviceSpec
    spec(bool co)
    {
        return duplexDeviceSpec(timing, cal, co);
    }
};

TEST_F(DuplexDeviceTest, SpecHasBothEngines)
{
    const auto s = spec(false);
    EXPECT_TRUE(s.hasLowEngine);
    EXPECT_EQ(s.memCapacity, 80ull * kGiB); // same as the GPU
    EXPECT_GT(s.low.memBps, s.xpu.memBps);
    EXPECT_LT(s.low.peakFlops, s.xpu.peakFlops);
}

TEST_F(DuplexDeviceTest, FactoryBuildsRightClass)
{
    auto gpu = makeDevice(h100DeviceSpec(timing, cal));
    EXPECT_NE(dynamic_cast<GpuDevice *>(gpu.get()), nullptr);
    auto dup = makeDevice(spec(false));
    EXPECT_NE(dynamic_cast<HybridDevice *>(dup.get()), nullptr);
}

TEST_F(DuplexDeviceTest, HighOpbStaysOnXpu)
{
    HybridDevice dev(spec(false));
    GpuDevice gpu(h100DeviceSpec(timing, cal));
    const OpCost fc = costs.qkv(64);
    EXPECT_EQ(dev.runHighOpb(fc).time, gpu.runHighOpb(fc).time);
}

TEST_F(DuplexDeviceTest, DecodeAttentionPicksLowEngine)
{
    HybridDevice dev(spec(false));
    GpuDevice gpu(h100DeviceSpec(timing, cal));
    StageShape stage;
    for (int i = 0; i < 32; ++i)
        stage.decodeContexts.push_back(2048);
    const OpCost decode = costs.attentionDecode(stage);
    const auto hybrid_t = dev.runAttention(decode, {});
    const auto gpu_t = gpu.runAttention(decode, {});
    // Logic-PIM's ~3x bandwidth advantage must show.
    EXPECT_LT(hybrid_t.composed * 2, gpu_t.composed);
}

TEST_F(DuplexDeviceTest, PrefillAttentionStaysOnXpu)
{
    HybridDevice dev(spec(false));
    GpuDevice gpu(h100DeviceSpec(timing, cal));
    StageShape stage;
    stage.prefillLengths.push_back(4096);
    const OpCost prefill = costs.attentionPrefill(stage);
    const auto hybrid_t = dev.runAttention({}, prefill);
    const auto gpu_t = gpu.runAttention({}, prefill);
    EXPECT_EQ(hybrid_t.composed, gpu_t.composed);
}

TEST_F(DuplexDeviceTest, CoProcessedAttentionOverlaps)
{
    StageShape stage;
    for (int i = 0; i < 32; ++i)
        stage.decodeContexts.push_back(2048);
    stage.prefillLengths.push_back(2048);
    const OpCost decode = costs.attentionDecode(stage);
    const OpCost prefill = costs.attentionPrefill(stage);

    HybridDevice serial(spec(false));
    HybridDevice co(spec(true));
    const auto serial_t = serial.runAttention(decode, prefill);
    const auto co_t = co.runAttention(decode, prefill);
    EXPECT_EQ(co_t.composed,
              std::max(co_t.decode.time, co_t.prefill.time));
    EXPECT_LT(co_t.composed, serial_t.composed);
    // Energy is the same work, just overlapped.
    const double serial_j = serial_t.decode.energy.totalJ() +
                            serial_t.prefill.energy.totalJ();
    const double co_j = co_t.decode.energy.totalJ() +
                        co_t.prefill.energy.totalJ();
    EXPECT_NEAR(co_j, serial_j, serial_j * 0.25);
}

TEST_F(DuplexDeviceTest, DecodeMoeGoesLow)
{
    HybridDevice dev(spec(false));
    // Decoding-only stage: 16 tokens per expert => low Op/B.
    std::vector<ExpertWork> experts;
    for (int e = 0; e < 8; ++e)
        experts.push_back({16, costs.expertFfn(16)});
    dev.runMoe(experts);
    EXPECT_EQ(dev.lastExpertsOnLow(), 8);
}

TEST_F(DuplexDeviceTest, MixedMoeGoesXpu)
{
    HybridDevice dev(spec(false));
    // Mixed stage: ~1k tokens per expert => high Op/B.
    std::vector<ExpertWork> experts;
    for (int e = 0; e < 8; ++e)
        experts.push_back({1100, costs.expertFfn(1100)});
    dev.runMoe(experts);
    EXPECT_EQ(dev.lastExpertsOnLow(), 0);
}

TEST_F(DuplexDeviceTest, CoProcessingNeverSlower)
{
    LayerCosts glam_costs{glamConfig()};
    const auto s_serial = spec(false);
    const auto s_co = spec(true);
    HybridDevice serial(s_serial);
    HybridDevice co(s_co);
    ExpertTimeLut lut(s_co.xpu, s_co.low, glam_costs.expertFfn(1),
                      glam_costs.expertFfn(2));
    co.setExpertLut(&lut);

    Rng rng(3);
    ExpertSelector sel(64, 2);
    for (int trial = 0; trial < 20; ++trial) {
        const auto hist = sel.sample(rng, 128);
        std::vector<ExpertWork> experts;
        for (auto h : hist)
            experts.push_back({h, glam_costs.expertFfn(h)});
        const PicoSec t_serial = serial.runMoe(experts).time;
        const PicoSec t_co = co.runMoe(experts).time;
        EXPECT_LE(t_co, t_serial);
    }
}

TEST_F(DuplexDeviceTest, CoProcessingSplitsSkewedLoad)
{
    const auto s = spec(true);
    HybridDevice dev(s);
    ExpertTimeLut lut(s.xpu, s.low, costs.expertFfn(1),
                      costs.expertFfn(2));
    dev.setExpertLut(&lut);
    // One prefill-heavy expert plus cold decode experts.
    std::vector<ExpertWork> experts;
    experts.push_back({4096, costs.expertFfn(4096)});
    for (int e = 0; e < 7; ++e)
        experts.push_back({16, costs.expertFfn(16)});
    dev.runMoe(experts);
    EXPECT_GT(dev.lastExpertsOnLow(), 0);
    EXPECT_LT(dev.lastExpertsOnLow(), 8);
}

TEST_F(DuplexDeviceTest, EnergyUsesLowPathWhenOnLow)
{
    HybridDevice dev(spec(false));
    GpuDevice gpu(h100DeviceSpec(timing, cal));
    std::vector<ExpertWork> experts;
    for (int e = 0; e < 8; ++e)
        experts.push_back({16, costs.expertFfn(16)});
    const double dup_j = dev.runMoe(experts).energy.dramJ;
    const double gpu_j = gpu.runMoe(experts).energy.dramJ;
    // Logic-PIM skips the interposer: visibly lower DRAM energy.
    EXPECT_LT(dup_j, 0.8 * gpu_j);
}

/**
 * runMoeGroups over contiguous groups must equal pricing each group
 * alone: the makespan is the slowest group, and the energy is the
 * in-order sum of each group's energy times the scale.
 */
void
expectGroupsCompose(Device &dev, const std::vector<ExpertWork> &experts,
                    int group_size, double scale)
{
    DeviceTiming expect;
    for (std::size_t g = 0; g < experts.size(); g += group_size) {
        const std::vector<ExpertWork> group(
            experts.begin() + g, experts.begin() + g + group_size);
        const DeviceTiming t = dev.runMoe(group);
        expect.time = std::max(expect.time, t.time);
        expect.energy.dramJ += t.energy.dramJ * scale;
        expect.energy.computeJ += t.energy.computeJ * scale;
    }
    const DeviceTiming got = dev.runMoeGroups(experts, group_size, scale);
    EXPECT_GT(got.time, 0);
    EXPECT_EQ(got.time, expect.time);
    EXPECT_EQ(got.energy.dramJ, expect.energy.dramJ);
    EXPECT_EQ(got.energy.computeJ, expect.energy.computeJ);
}

TEST_F(DuplexDeviceTest, MoeGroupsComposeSingleGroups)
{
    // Four groups of four experts: a decode-like group, a cold
    // group, a prefill-heavy group and a skewed one, so the hybrid
    // devices pick different engines per group.
    const std::vector<std::int64_t> tokens = {16,   3,  0,  9,
                                              0,    0,  0,  0,
                                              1100, 900, 1500, 2048,
                                              4096, 0,  16, 1};
    std::vector<ExpertWork> experts;
    for (std::int64_t t : tokens)
        experts.push_back({t, costs.expertFfn(t)});

    GpuDevice gpu(h100DeviceSpec(timing, cal));
    HybridDevice serial(spec(false));
    HybridDevice co_no_lut(spec(true));
    const auto s_co = spec(true);
    HybridDevice co(s_co);
    ExpertTimeLut lut(s_co.xpu, s_co.low, costs.expertFfn(1),
                      costs.expertFfn(2));
    co.setExpertLut(&lut);

    for (Device *dev : {static_cast<Device *>(&gpu),
                        static_cast<Device *>(&serial),
                        static_cast<Device *>(&co_no_lut),
                        static_cast<Device *>(&co)}) {
        SCOPED_TRACE(dev->spec().name);
        expectGroupsCompose(*dev, experts, 4, 1.0);
        expectGroupsCompose(*dev, experts, 4, 2.0);
    }
}

TEST_F(DuplexDeviceTest, EmptyMoeIsFree)
{
    HybridDevice serial(spec(false));
    const auto s_co = spec(true);
    HybridDevice co(s_co);
    ExpertTimeLut lut(s_co.xpu, s_co.low, costs.expertFfn(1),
                      costs.expertFfn(2));
    co.setExpertLut(&lut);
    for (HybridDevice *dev : {&serial, &co}) {
        const DeviceTiming t = dev->runMoe({});
        EXPECT_EQ(t.time, 0);
        EXPECT_EQ(t.energy.totalJ(), 0.0);
        EXPECT_EQ(dev->lastExpertsOnLow(), 0);
    }
}

} // namespace
} // namespace duplex
