/**
 * @file
 * Calibration-layer tests: the factors everything downstream uses,
 * and the pin that keeps the committed constant equal to what the
 * cycle-level probes measure.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "dram/calibrate.hh"

namespace duplex
{
namespace
{

TEST(Calibration, EfficienciesInPhysicalRange)
{
    const DramCalibration cal = hbm3Calibration();
    EXPECT_GT(cal.xpuStreamEff, 0.80);
    EXPECT_LE(cal.xpuStreamEff, 1.0);
    EXPECT_GT(cal.pimStaggeredEff, 0.55);
    EXPECT_LE(cal.pimStaggeredEff, 1.0);
    EXPECT_GT(cal.pimLockstepEff, 0.35);
    EXPECT_LE(cal.pimLockstepEff, cal.pimStaggeredEff);
}

TEST(Calibration, BundleGainNearPaperClaim)
{
    const HbmTiming t = hbm3Timing();
    const DramCalibration cal = hbm3Calibration();
    // Provisioned 4 x, sustained close to 3 x after row switches.
    EXPECT_GT(cal.pimGain(t), 2.5);
    EXPECT_LT(cal.pimGain(t), 4.0);
}

TEST(Calibration, CoProcessingInterferenceSmall)
{
    const DramCalibration cal = hbm3Calibration();
    // Sharing ACT windows and refresh costs only a few percent,
    // which is what makes co-processing worthwhile (Section IV-C).
    EXPECT_GT(cal.xpuCoEff, 0.92 * cal.xpuStreamEff);
    EXPECT_GT(cal.pimCoEff, 0.92 * cal.pimStaggeredEff);
}

TEST(Calibration, StackBandwidthsConsistent)
{
    const HbmTiming t = hbm3Timing();
    const DramCalibration cal = hbm3Calibration();
    EXPECT_NEAR(cal.xpuStackBps(t),
                t.stackPeakBytesPerSec() * cal.xpuStreamEff, 1.0);
    EXPECT_GT(cal.pimStackBps(t), cal.xpuStackBps(t));
}

TEST(Calibration, PinnedConstantMatchesCycleModel)
{
    // The only place a simulation's DRAM factors meet the cycle
    // model: every device spec reads hbm3Calibration(), so the
    // constant must equal the probes bit for bit.
    const DramCalibration measured = calibrateDram(hbm3Timing());
    const DramCalibration pinned = hbm3Calibration();
    EXPECT_EQ(measured.xpuStreamEff, pinned.xpuStreamEff);
    EXPECT_EQ(measured.pimStaggeredEff, pinned.pimStaggeredEff);
    EXPECT_EQ(measured.pimLockstepEff, pinned.pimLockstepEff);
    EXPECT_EQ(measured.xpuCoEff, pinned.xpuCoEff);
    EXPECT_EQ(measured.pimCoEff, pinned.pimCoEff);
    if (HasFailure()) {
        char values[512];
        std::snprintf(values, sizeof(values),
                      "    return {.xpuStreamEff = %.17g,\n"
                      "            .pimStaggeredEff = %.17g,\n"
                      "            .pimLockstepEff = %.17g,\n"
                      "            .xpuCoEff = %.17g,\n"
                      "            .pimCoEff = %.17g};\n",
                      measured.xpuStreamEff, measured.pimStaggeredEff,
                      measured.pimLockstepEff, measured.xpuCoEff,
                      measured.pimCoEff);
        ADD_FAILURE() << "the cycle model moved; commit the measured "
                         "factors in hbm3Calibration() "
                         "(src/dram/calibration.hh) and list every "
                         "golden that moves with them:\n"
                      << values;
    }
}

TEST(Calibration, DeterministicAcrossRuns)
{
    const DramCalibration c1 = calibrateDram(hbm3Timing(), 256 * kKiB);
    const DramCalibration c2 = calibrateDram(hbm3Timing(), 256 * kKiB);
    EXPECT_DOUBLE_EQ(c1.xpuStreamEff, c2.xpuStreamEff);
    EXPECT_DOUBLE_EQ(c1.pimStaggeredEff, c2.pimStaggeredEff);
}

TEST(Calibration, LongerProbesConverge)
{
    const DramCalibration c1 = calibrateDram(hbm3Timing(), 512 * kKiB);
    const DramCalibration c2 = calibrateDram(hbm3Timing(), 1 * kMiB);
    EXPECT_NEAR(c1.xpuStreamEff, c2.xpuStreamEff, 0.02);
    EXPECT_NEAR(c1.pimStaggeredEff, c2.pimStaggeredEff, 0.02);
}

} // namespace
} // namespace duplex
