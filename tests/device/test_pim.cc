/**
 * @file
 * PIM engine-spec tests: the Section VI configurations.
 */

#include <gtest/gtest.h>

#include "device/pim.hh"

namespace duplex
{
namespace
{

class PimSpecTest : public ::testing::Test
{
  protected:
    HbmTiming timing = hbm3Timing();
    const DramCalibration cal = hbm3Calibration();
};

TEST_F(PimSpecTest, LogicPimPerStackFlops)
{
    const EngineSpec e = logicPimEngine(timing, cal, 1);
    // 21.3 TFLOPS per stack (Section VI).
    EXPECT_NEAR(e.peakFlops, 21.3e12, 0.1e12);
}

TEST_F(PimSpecTest, LogicPimDeviceFlops)
{
    const EngineSpec e = logicPimEngine(timing, cal, 5);
    EXPECT_NEAR(e.peakFlops, 5 * 21.3e12, 0.5e12);
}

TEST_F(PimSpecTest, LogicPimBandwidthAboveXpu)
{
    const EngineSpec pim = logicPimEngine(timing, cal, 5);
    const double xpu_bps = cal.xpuStackBps(timing) * 5;
    EXPECT_GT(pim.memBps, 2.5 * xpu_bps);
    EXPECT_LT(pim.memBps, 4.0 * xpu_bps);
}

TEST_F(PimSpecTest, LogicPimRidgeNearEight)
{
    const EngineSpec e = logicPimEngine(timing, cal, 1);
    // Designed compute-to-provisioned-bandwidth ratio is 8 Op/B;
    // against sustained bandwidth the ridge sits somewhat higher.
    EXPECT_GT(e.ridgeOpPerByte(), 7.0);
    EXPECT_LT(e.ridgeOpPerByte(), 13.0);
}

TEST_F(PimSpecTest, BankPimSixteenX)
{
    const EngineSpec e = bankPimEngine(timing, cal, 1);
    const double provisioned = 16.0 * timing.stackPeakBytesPerSec();
    EXPECT_NEAR(e.peakFlops, provisioned, 1e9); // peak Op/B = 1
    EXPECT_NEAR(e.memBps, provisioned * cal.pimStaggeredEff, 1e9);
}

TEST_F(PimSpecTest, BankPimMoreBandwidthLessCompute)
{
    const EngineSpec bank = bankPimEngine(timing, cal, 5);
    const EngineSpec logic = logicPimEngine(timing, cal, 5);
    EXPECT_GT(bank.memBps, 3.0 * logic.memBps);
    EXPECT_LT(bank.peakFlops, logic.peakFlops);
}

TEST_F(PimSpecTest, BankGroupPimMirrorsLogicPim)
{
    const EngineSpec bg = bankGroupPimEngine(timing, cal, 5);
    const EngineSpec logic = logicPimEngine(timing, cal, 5);
    EXPECT_DOUBLE_EQ(bg.peakFlops, logic.peakFlops);
    EXPECT_DOUBLE_EQ(bg.memBps, logic.memBps);
}

TEST_F(PimSpecTest, VariantPathsAndClasses)
{
    EXPECT_EQ(pimVariantPath(PimVariant::LogicPim),
              DramPath::LogicDie);
    EXPECT_EQ(pimVariantPath(PimVariant::BankPim),
              DramPath::BankLocal);
    EXPECT_EQ(pimVariantPath(PimVariant::BankGroupPim),
              DramPath::BankGroup);
    EXPECT_EQ(pimVariantClass(PimVariant::LogicPim),
              ComputeClass::LogicPim);
}

TEST_F(PimSpecTest, VariantDescsCarryArea)
{
    AreaModel area;
    const auto logic =
        pimVariantDesc(PimVariant::LogicPim, timing, cal, area);
    const auto bank =
        pimVariantDesc(PimVariant::BankPim, timing, cal, area);
    const auto bg =
        pimVariantDesc(PimVariant::BankGroupPim, timing, cal, area);
    EXPECT_NEAR(logic.areaMm2, 17.80, 0.05);
    EXPECT_GT(bg.areaMm2, logic.areaMm2);
    EXPECT_GT(bank.areaMm2, logic.areaMm2 * 0.8);
    // EDAP descs must not fold dispatch overhead into delay.
    EXPECT_EQ(logic.engine.dispatchOverhead, 0);
}

} // namespace
} // namespace duplex
