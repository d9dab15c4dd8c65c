/**
 * @file
 * GPU device tests: the H100-class baseline of Section VI.
 */

#include <gtest/gtest.h>

#include "device/gpu.hh"

namespace duplex
{
namespace
{

class GpuTest : public ::testing::Test
{
  protected:
    HbmTiming timing = hbm3Timing();
    HybridDeviceSpec spec =
        h100DeviceSpec(timing, hbm3Calibration());
    GpuDevice dev{spec};
};

TEST_F(GpuTest, SpecNumbers)
{
    EXPECT_DOUBLE_EQ(spec.xpu.peakFlops, 990e12);
    EXPECT_EQ(spec.memCapacity, 80ull * kGiB);
    EXPECT_FALSE(spec.hasLowEngine);
    // Calibrated bandwidth close to the 3.35 TB/s datasheet.
    EXPECT_GT(spec.xpu.memBps, 2.7e12);
    EXPECT_LT(spec.xpu.memBps, 3.45e12);
}

TEST_F(GpuTest, RidgePointHigh)
{
    // An H100 needs hundreds of Op/B to leave the memory-bound
    // region — the premise of Fig. 4(b).
    EXPECT_GT(spec.xpu.ridgeOpPerByte(), 200.0);
}

TEST_F(GpuTest, HighOpbRunsPositive)
{
    const DeviceTiming t = dev.runHighOpb({1e12, 1'000'000'000});
    EXPECT_GT(t.time, 0);
    EXPECT_GT(t.energy.dramJ, 0.0);
    EXPECT_GT(t.energy.computeJ, 0.0);
}

TEST_F(GpuTest, AttentionSerializesGroups)
{
    const OpCost decode{1e9, 500'000'000};
    const OpCost prefill{2e12, 100'000'000};
    const AttentionTiming t = dev.runAttention(decode, prefill);
    EXPECT_EQ(t.composed, t.decode.time + t.prefill.time);
}

TEST_F(GpuTest, MoeSkipsColdExperts)
{
    std::vector<ExpertWork> experts(4);
    experts[0] = {8, {1e9, 100'000'000}};
    experts[1] = {0, {0.0, 0}}; // cold: never touched
    experts[2] = {4, {5e8, 100'000'000}};
    experts[3] = {0, {0.0, 0}};
    const DeviceTiming t = dev.runMoe(experts);

    std::vector<ExpertWork> hot{experts[0], experts[2]};
    const DeviceTiming t2 = dev.runMoe(hot);
    EXPECT_EQ(t.time, t2.time);
    EXPECT_DOUBLE_EQ(t.energy.totalJ(), t2.energy.totalJ());
}

TEST_F(GpuTest, MoeGroupedDispatchChargedOnce)
{
    std::vector<ExpertWork> one{{8, {1e9, 100'000'000}}};
    std::vector<ExpertWork> two{{8, {1e9, 100'000'000}},
                                {8, {1e9, 100'000'000}}};
    const PicoSec t1 = dev.runMoe(one).time;
    const PicoSec t2 = dev.runMoe(two).time;
    // Twice the work, one extra dispatch: strictly less than 2x.
    EXPECT_LT(t2, 2 * t1);
    EXPECT_GT(t2, 2 * (t1 - spec.xpu.dispatchOverhead));
}

TEST_F(GpuTest, EmptyMoeIsFree)
{
    const DeviceTiming t = dev.runMoe({});
    EXPECT_EQ(t.time, 0);
    EXPECT_DOUBLE_EQ(t.energy.totalJ(), 0.0);
}

TEST_F(GpuTest, MemoryBoundOperatorTracksBandwidth)
{
    // A pure streaming op should take ~bytes / memBps.
    const Bytes bytes = 3'000'000'000ull;
    const DeviceTiming t = dev.runHighOpb({1.0, bytes});
    const double expect_sec =
        static_cast<double>(bytes) / spec.xpu.memBps;
    EXPECT_NEAR(psToSec(t.time), expect_sec, expect_sec * 0.01);
}

} // namespace
} // namespace duplex
