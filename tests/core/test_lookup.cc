/**
 * @file
 * Expert-time lookup table tests (Section V-B).
 */

#include <gtest/gtest.h>

#include "core/lookup.hh"
#include "device/gpu.hh"
#include "device/pim.hh"

namespace duplex
{
namespace
{

class LutTest : public ::testing::Test
{
  protected:
    HbmTiming timing = hbm3Timing();
    const DramCalibration cal = hbm3Calibration();
    EngineSpec xpu = h100Engine(timing, cal);
    EngineSpec low = logicPimEngine(timing, cal, 5);
    LayerCosts costs{mixtralConfig()};
    ExpertTimeLut lut{xpu, low, costs.expertFfn(1),
                      costs.expertFfn(2)};
};

TEST_F(LutTest, ZeroTokensIsFree)
{
    EXPECT_EQ(lut.xpuTime(0), 0);
    EXPECT_EQ(lut.lowTime(0), 0);
}

TEST_F(LutTest, ReconstructsAffineCost)
{
    for (std::int64_t t : {1, 2, 5, 37, 400}) {
        const OpCost direct = costs.expertFfn(t);
        const OpCost rebuilt = lut.expertCost(t);
        EXPECT_NEAR(rebuilt.flops, direct.flops,
                    direct.flops * 1e-9);
        EXPECT_EQ(rebuilt.bytes, direct.bytes);
    }
}

TEST_F(LutTest, OnDemandMatchesExactRoofline)
{
    // No tabulated range: every count, small or far past any batch,
    // answers the exact roofline of the expert's cost.
    for (std::int64_t t = 1; t <= 20000; ++t) {
        const OpCost c = costs.expertFfn(t);
        ASSERT_EQ(lut.xpuTime(t),
                  operatorTimeNoOverhead(xpu, c.flops, c.bytes))
            << t << " tokens";
        ASSERT_EQ(lut.lowTime(t),
                  operatorTimeNoOverhead(low, c.flops, c.bytes))
            << t << " tokens";
    }
}

TEST_F(LutTest, MonotoneInTokens)
{
    PicoSec prev_x = 0;
    PicoSec prev_l = 0;
    for (std::int64_t t = 1; t <= 512; t *= 2) {
        EXPECT_GE(lut.xpuTime(t), prev_x);
        EXPECT_GE(lut.lowTime(t), prev_l);
        prev_x = lut.xpuTime(t);
        prev_l = lut.lowTime(t);
    }
}

TEST_F(LutTest, LowEngineWinsAtFewTokens)
{
    // Few tokens => Op/B ~ tokens, deep in Logic-PIM territory.
    EXPECT_LT(lut.lowTime(1), lut.xpuTime(1));
    EXPECT_LT(lut.lowTime(8), lut.xpuTime(8));
}

TEST_F(LutTest, XpuWinsAtManyTokens)
{
    // A mixed-stage expert sees thousands of tokens; the xPU's
    // compute advantage dominates (Section III-B).
    EXPECT_LT(lut.xpuTime(4096), lut.lowTime(4096));
}

TEST_F(LutTest, CrossoverExistsAndIsOrdered)
{
    // Somewhere between 1 and 4096 tokens the best engine flips
    // exactly once.
    bool low_phase = true;
    int flips = 0;
    for (std::int64_t t = 1; t <= 4096; ++t) {
        const bool low_better = lut.lowTime(t) < lut.xpuTime(t);
        if (low_better != low_phase) {
            low_phase = low_better;
            ++flips;
        }
    }
    EXPECT_EQ(flips, 1);
    EXPECT_FALSE(low_phase); // ends with the xPU winning
}

} // namespace
} // namespace duplex
