/**
 * @file
 * Expert co-processing partition tests, including the key property:
 * the co-processed makespan never exceeds either single-engine
 * execution.
 */

#include <gtest/gtest.h>

#include "core/coprocess.hh"
#include "device/gpu.hh"
#include "device/pim.hh"
#include "workload/experts.hh"

namespace duplex
{
namespace
{

class CoprocessTest : public ::testing::Test
{
  protected:
    HbmTiming timing = hbm3Timing();
    const DramCalibration cal = hbm3Calibration();
    EngineSpec xpu = h100Engine(timing, cal);
    EngineSpec low = logicPimEngine(timing, cal, 5);
    LayerCosts costs{mixtralConfig()};
    ExpertTimeLut lut{xpu, low, costs.expertFfn(1),
                      costs.expertFfn(2), 8192};

    std::vector<ExpertWork>
    makeExperts(const std::vector<std::int64_t> &tokens)
    {
        std::vector<ExpertWork> w;
        for (auto t : tokens)
            w.push_back({t, costs.expertFfn(t)});
        return w;
    }

    PicoSec
    allOn(const EngineSpec &e,
          const std::vector<ExpertWork> &experts)
    {
        PicoSec total = e.dispatchOverhead;
        for (const auto &w : experts) {
            if (w.tokens == 0)
                continue;
            total += operatorTimeNoOverhead(e, w.cost.flops,
                                            w.cost.bytes);
        }
        return total;
    }
};

TEST_F(CoprocessTest, EmptyInputEmptyPartition)
{
    const auto part = partitionExperts({}, lut, xpu, low);
    EXPECT_EQ(part.sorted.size(), 0u);
    EXPECT_EQ(part.makespan(), 0);
}

TEST_F(CoprocessTest, ZeroTokenExpertsDropped)
{
    const auto part = partitionExperts(
        makeExperts({0, 4, 0, 8}), lut, xpu, low);
    EXPECT_EQ(part.sorted.size(), 2u);
}

TEST_F(CoprocessTest, SortedAscending)
{
    const auto part = partitionExperts(
        makeExperts({30, 5, 12, 1, 22}), lut, xpu, low);
    for (std::size_t i = 1; i < part.sorted.size(); ++i)
        EXPECT_LE(part.sorted[i - 1].tokens,
                  part.sorted[i].tokens);
}

TEST_F(CoprocessTest, MakespanIsMaxOfSides)
{
    const auto part = partitionExperts(
        makeExperts({8, 8, 16, 16, 32, 32, 64, 64}), lut, xpu, low);
    EXPECT_EQ(part.makespan(),
              std::max(part.lowTime, part.xpuTime));
}

TEST_F(CoprocessTest, NeverWorseThanSingleEngine)
{
    // The paper's core claim for expert co-processing, checked on
    // many random token histograms.
    Rng rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::int64_t> tokens;
        const int n = static_cast<int>(rng.uniformInt(1, 8));
        for (int i = 0; i < n; ++i)
            tokens.push_back(rng.uniformInt(0, 200));
        const auto experts = makeExperts(tokens);
        const auto part = partitionExperts(experts, lut, xpu, low);
        EXPECT_LE(part.makespan(), allOn(xpu, experts));
        EXPECT_LE(part.makespan(), allOn(low, experts));
    }
}

TEST_F(CoprocessTest, DecodeStageAllGoLow)
{
    // Uniform few-token experts: Logic-PIM alone beats any split
    // that wakes the xPU for one expert.
    const auto part = partitionExperts(
        makeExperts({16, 16, 16, 16, 16, 16, 16, 16}), lut, xpu,
        low);
    const auto experts =
        makeExperts({16, 16, 16, 16, 16, 16, 16, 16});
    EXPECT_LE(part.makespan(), allOn(low, experts));
}

TEST_F(CoprocessTest, SkewedExpertsSplit)
{
    // One hot expert (mixed stage) and several cold ones: the hot
    // expert belongs on the xPU, the cold ones on Logic-PIM
    // (Section VIII-B).
    const auto part = partitionExperts(
        makeExperts({4096, 8, 8, 8, 8, 8, 8, 8}), lut, xpu, low);
    EXPECT_GT(part.numOnLow, 0);
    EXPECT_LT(part.numOnLow,
              static_cast<int>(part.sorted.size()));
    // The hot expert (sorted last) is on the xPU side.
    EXPECT_EQ(part.sorted.back().tokens, 4096);
}

TEST_F(CoprocessTest, FewestTokensAssignedToLow)
{
    const auto part = partitionExperts(
        makeExperts({100, 1, 50, 2, 75, 3}), lut, xpu, low);
    // Whatever the split, the low side holds a prefix of the
    // ascending ordering.
    for (int i = 1; i < part.numOnLow; ++i)
        EXPECT_LE(part.sorted[i - 1].tokens,
                  part.sorted[i].tokens);
}

TEST_F(CoprocessTest, AttentionCompositionIsMax)
{
    EXPECT_EQ(coProcessedAttentionTime(100, 200), 200);
    EXPECT_EQ(coProcessedAttentionTime(300, 200), 300);
    EXPECT_EQ(coProcessedAttentionTime(0, 200), 200);
}

/** Property sweep over gate skews. */
class SkewSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(SkewSweep, PartitionNeverWorse)
{
    const HbmTiming timing = hbm3Timing();
    const DramCalibration cal = hbm3Calibration();
    const EngineSpec xpu = h100Engine(timing, cal);
    const EngineSpec low = logicPimEngine(timing, cal, 5);
    LayerCosts costs{glamConfig()};
    ExpertTimeLut lut{xpu, low, costs.expertFfn(1),
                      costs.expertFfn(2), 8192};

    ExpertSelector sel(64, 2, GatePolicy::Zipf, GetParam());
    Rng rng(7);
    const auto hist = sel.sample(rng, 128);
    std::vector<ExpertWork> experts;
    for (auto h : hist)
        experts.push_back({h, costs.expertFfn(h)});

    const auto part = partitionExperts(experts, lut, xpu, low);
    PicoSec all_low = low.dispatchOverhead;
    PicoSec all_xpu = xpu.dispatchOverhead;
    for (const auto &w : experts) {
        if (w.tokens == 0)
            continue;
        all_low += operatorTimeNoOverhead(low, w.cost.flops,
                                          w.cost.bytes);
        all_xpu += operatorTimeNoOverhead(xpu, w.cost.flops,
                                          w.cost.bytes);
    }
    EXPECT_LE(part.makespan(), all_low);
    EXPECT_LE(part.makespan(), all_xpu);
}

INSTANTIATE_TEST_SUITE_P(GateSkews, SkewSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 1.5,
                                           2.0));

} // namespace
} // namespace duplex
