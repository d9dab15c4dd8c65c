/**
 * @file
 * Expert co-processing partition tests, including the key property:
 * the co-processed makespan never exceeds either single-engine
 * execution.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/coprocess.hh"
#include "core/duplex_device.hh"
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
                      costs.expertFfn(2)};

    std::vector<ExpertWork>
    makeExperts(const std::vector<std::int64_t> &tokens)
    {
        std::vector<ExpertWork> w;
        for (auto t : tokens)
            w.push_back({t, costs.expertFfn(t)});
        return w;
    }

    /** Expert prices as a co-processing device fills them. */
    std::vector<ExpertPrice>
    priced(const std::vector<ExpertWork> &experts)
    {
        std::vector<ExpertPrice> p(experts.size());
        for (std::size_t i = 0; i < experts.size(); ++i) {
            p[i].tokens = experts[i].tokens;
            p[i].xpu = lut.xpuTime(experts[i].tokens);
            p[i].low = lut.lowTime(experts[i].tokens);
        }
        return p;
    }

    std::vector<ExpertPrice>
    priced(const std::vector<std::int64_t> &tokens)
    {
        return priced(makeExperts(tokens));
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
    const auto part = partitionExperts({}, xpu, low);
    EXPECT_EQ(part.sorted.size(), 0u);
    EXPECT_EQ(part.makespan(), 0);
}

TEST_F(CoprocessTest, ZeroTokenExpertsDropped)
{
    const auto part = partitionExperts(priced({0, 4, 0, 8}), xpu, low);
    EXPECT_EQ(part.sorted.size(), 2u);
}

TEST_F(CoprocessTest, SortedAscending)
{
    const auto experts = priced({30, 5, 12, 1, 22});
    const auto part = partitionExperts(experts, xpu, low);
    for (std::size_t i = 1; i < part.sorted.size(); ++i)
        EXPECT_LE(part.sorted[i - 1]->tokens,
                  part.sorted[i]->tokens);
}

TEST_F(CoprocessTest, MakespanIsMaxOfSides)
{
    const auto part = partitionExperts(
        priced({8, 8, 16, 16, 32, 32, 64, 64}), xpu, low);
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
        const auto part = partitionExperts(priced(experts), xpu, low);
        EXPECT_LE(part.makespan(), allOn(xpu, experts));
        EXPECT_LE(part.makespan(), allOn(low, experts));
    }
}

TEST_F(CoprocessTest, DecodeStageAllGoLow)
{
    // Uniform few-token experts: Logic-PIM alone beats any split
    // that wakes the xPU for one expert.
    const auto part = partitionExperts(
        priced({16, 16, 16, 16, 16, 16, 16, 16}), xpu, low);
    const auto experts =
        makeExperts({16, 16, 16, 16, 16, 16, 16, 16});
    EXPECT_LE(part.makespan(), allOn(low, experts));
}

TEST_F(CoprocessTest, SkewedExpertsSplit)
{
    // One hot expert (mixed stage) and several cold ones: the hot
    // expert belongs on the xPU, the cold ones on Logic-PIM
    // (Section VIII-B).
    const auto experts = priced({4096, 8, 8, 8, 8, 8, 8, 8});
    const auto part = partitionExperts(experts, xpu, low);
    EXPECT_GT(part.numOnLow, 0);
    EXPECT_LT(part.numOnLow,
              static_cast<int>(part.sorted.size()));
    // The hot expert (sorted last) is on the xPU side.
    EXPECT_EQ(part.sorted.back()->tokens, 4096);
}

TEST_F(CoprocessTest, FewestTokensAssignedToLow)
{
    const auto experts = priced({100, 1, 50, 2, 75, 3});
    const auto part = partitionExperts(experts, xpu, low);
    // Whatever the split, the low side holds a prefix of the
    // ascending ordering.
    for (int i = 1; i < part.numOnLow; ++i)
        EXPECT_LE(part.sorted[i - 1]->tokens,
                  part.sorted[i]->tokens);
}

TEST_F(CoprocessTest, TiesKeepTheSmallestSplit)
{
    // Three equal experts and no dispatch overhead: one or two on
    // the low engine both give a makespan of 20.
    EngineSpec x0 = xpu;
    EngineSpec l0 = low;
    x0.dispatchOverhead = 0;
    l0.dispatchOverhead = 0;
    const std::vector<ExpertPrice> experts(3, {1, 10, 10, {}, {}});
    const auto part = partitionExperts(experts, x0, l0);
    EXPECT_EQ(part.makespan(), 20);
    EXPECT_EQ(part.numOnLow, 1);
}

TEST_F(CoprocessTest, CoProcessedGroupMatchesBruteForceSplit)
{
    // A co-processing device against an O(n^2) search over every
    // prefix split of the ascending order: the first split with the
    // least makespan, and the energy of each expert on its side
    // summed in that order, bit for bit. Groups of 1-64 experts mix
    // idle experts, ties and a few hot ones.
    const HybridDeviceSpec spec = duplexDeviceSpec(timing, cal, true);
    HybridDevice dev(spec);
    dev.setExpertLut(&lut);
    const EnergyModel energy(spec.energyParams);
    Rng rng(2024);
    for (int trial = 0; trial < 10000; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(1, 64));
        const std::int64_t cold = rng.uniformInt(1, 40);
        std::vector<std::int64_t> tokens;
        for (int i = 0; i < n; ++i) {
            const std::int64_t kind = rng.uniformInt(0, 9);
            tokens.push_back(kind < 2   ? 0
                             : kind < 9 ? rng.uniformInt(1, cold)
                                        : rng.uniformInt(300, 6000));
        }
        const auto experts = makeExperts(tokens);
        const DeviceTiming got = dev.runMoe(experts);

        std::vector<std::int64_t> sorted;
        for (std::int64_t t : tokens)
            if (t > 0)
                sorted.push_back(t);
        std::sort(sorted.begin(), sorted.end());
        const int m = static_cast<int>(sorted.size());
        PicoSec best = m > 0 ? -1 : 0;
        int best_split = 0;
        for (int split = 0; m > 0 && split <= m; ++split) {
            PicoSec t_low = split > 0 ? low.dispatchOverhead : 0;
            PicoSec t_xpu = split < m ? xpu.dispatchOverhead : 0;
            for (int i = 0; i < m; ++i) {
                if (i < split)
                    t_low += lut.lowTime(sorted[i]);
                else
                    t_xpu += lut.xpuTime(sorted[i]);
            }
            if (best < 0 || std::max(t_low, t_xpu) < best) {
                best = std::max(t_low, t_xpu);
                best_split = split;
            }
        }
        EnergyBreakdown want;
        for (int i = 0; i < m; ++i) {
            const OpCost c = costs.expertFfn(sorted[i]);
            want += i < best_split
                        ? engineEnergy(spec.lowPath, spec.lowCls,
                                       energy, c)
                        : engineEnergy(spec.xpuPath, spec.xpuCls,
                                       energy, c);
        }

        const auto part = partitionExperts(priced(experts), xpu, low);
        ASSERT_EQ(part.numOnLow, best_split) << "trial " << trial;
        ASSERT_EQ(part.makespan(), best) << "trial " << trial;
        ASSERT_EQ(dev.lastExpertsOnLow(), best_split) << "trial " << trial;
        ASSERT_EQ(got.time, best) << "trial " << trial;
        ASSERT_EQ(got.energy.dramJ, want.dramJ) << "trial " << trial;
        ASSERT_EQ(got.energy.computeJ, want.computeJ)
            << "trial " << trial;
    }
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
                      costs.expertFfn(2)};

    ExpertSelector sel(64, 2, GatePolicy::Zipf, GetParam());
    Rng rng(7);
    const auto hist = sel.sample(rng, 128);
    std::vector<ExpertWork> experts;
    std::vector<ExpertPrice> prices;
    for (auto h : hist) {
        experts.push_back({h, costs.expertFfn(h)});
        prices.push_back({h, lut.xpuTime(h), lut.lowTime(h), {}, {}});
    }

    const auto part = partitionExperts(prices, xpu, low);
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
