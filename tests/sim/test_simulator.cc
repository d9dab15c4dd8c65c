/**
 * @file
 * Integration tests: end-to-end serving simulations reproducing the
 * paper's qualitative claims, driven through the SimulationEngine
 * and the system registry.
 */

#include <gtest/gtest.h>

#include "sim/engine.hh"

namespace duplex
{
namespace
{

SimConfig
baseConfig(const std::string &system, const ModelConfig &model,
           int batch, std::int64_t lin, std::int64_t lout)
{
    SimConfig c;
    c.systemName = system;
    c.model = model;
    c.maxBatch = batch;
    c.workload.meanInputLen = lin;
    c.workload.meanOutputLen = lout;
    c.numRequests = 3 * batch;
    c.warmupRequests = batch / 2;
    c.maxStages = 600;
    return c;
}

SimResult
run(const SimConfig &config)
{
    return SimulationEngine(config).run();
}

double
throughput(const std::string &system, const ModelConfig &model,
           int batch = 32, std::int64_t lin = 512,
           std::int64_t lout = 256)
{
    return run(baseConfig(system, model, batch, lin, lout))
        .metrics.throughputTokensPerSec();
}

TEST(Simulator, DuplexBeatsGpuOnMixtral)
{
    const double gpu = throughput("gpu", mixtralConfig());
    const double dup = throughput("duplex", mixtralConfig());
    EXPECT_GT(dup, 1.3 * gpu);
}

TEST(Simulator, CoProcessingAndEtMonotone)
{
    const ModelConfig m = mixtralConfig();
    const double base = throughput("duplex", m, 64);
    const double pe = throughput("duplex-pe", m, 64);
    const double et = throughput("duplex-pe-et", m, 64);
    EXPECT_GE(pe, 0.98 * base); // PE never hurts materially
    EXPECT_GT(et, pe);          // ET adds the big win (Fig. 11)
}

TEST(Simulator, DuplexBeats2xGpuOnGlamDecodeHeavy)
{
    // Fig. 12: the decoding-only stage dominates, where Duplex's
    // bandwidth beats 2xGPU's extra compute.
    const ModelConfig m = glamConfig();
    const double two = throughput("gpu-2x", m, 64, 512, 512);
    const double dup = throughput("duplex-pe-et", m, 64, 512, 512);
    EXPECT_GT(dup, two);
}

TEST(Simulator, BankPimWinsOnMhaDecode)
{
    // Fig. 14: OPT (MHA, Op/B ~ 1) favours Bank-PIM's bandwidth.
    const ModelConfig m = optConfig();
    const double dup = throughput("duplex", m, 32, 512, 512);
    const double bank = throughput("bank-pim", m, 32, 512, 512);
    EXPECT_GT(bank, dup);
}

TEST(Simulator, DuplexBeatsBankPimOnMoE)
{
    // Fig. 14: Mixtral at batch 64 pushes MoE Op/B past Bank-PIM's
    // compute.
    const ModelConfig m = mixtralConfig();
    const double dup = throughput("duplex-pe-et", m, 64, 256, 256);
    const double bank = throughput("bank-pim", m, 64, 256, 256);
    EXPECT_GT(dup, bank);
}

TEST(Simulator, EnergyPerTokenLowerOnDuplex)
{
    const ModelConfig m = mixtralConfig();
    const auto gpu = run(baseConfig("gpu", m, 32, 512, 256));
    const auto dup = run(baseConfig("duplex", m, 32, 512, 256));
    EXPECT_LT(dup.energyPerTokenJ(), 0.9 * gpu.energyPerTokenJ());
}

TEST(Simulator, LatencyMetricsPopulated)
{
    SimConfig c =
        baseConfig("duplex", mixtralConfig(), 8, 128, 32);
    c.maxStages = 5000;
    const SimResult r = run(c);
    EXPECT_GT(r.metrics.tbtMs.count(), 100u);
    EXPECT_GT(r.metrics.t2ftMs.median(), 0.0);
    EXPECT_GT(r.metrics.e2eMs.median(),
              r.metrics.t2ftMs.median());
    // TBT tail at least as large as the median.
    EXPECT_GE(r.metrics.tbtMs.percentile(99),
              r.metrics.tbtMs.percentile(50));
}

TEST(Simulator, DecodingOnlyStagesDominate)
{
    // Fig. 5(a): most stages are decoding-only.
    SimConfig c = baseConfig("gpu", mixtralConfig(), 32, 256, 256);
    c.maxStages = 2000;
    const SimResult r = run(c);
    EXPECT_GT(r.metrics.decodingOnlyRatio(), 0.80);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const SimConfig c =
        baseConfig("duplex-pe-et", mixtralConfig(), 16, 256, 64);
    const SimResult a = run(c);
    const SimResult b = run(c);
    EXPECT_EQ(a.metrics.elapsed, b.metrics.elapsed);
    EXPECT_EQ(a.metrics.totalTokens, b.metrics.totalTokens);
    EXPECT_DOUBLE_EQ(a.totals.totalEnergyJ(),
                     b.totals.totalEnergyJ());
}

TEST(Simulator, PeakBatchHonorsLimit)
{
    SimConfig c = baseConfig("gpu", mixtralConfig(), 16, 256, 64);
    const SimResult r = run(c);
    EXPECT_LE(r.peakBatch, 16);
    EXPECT_GT(r.peakBatch, 0);
}

TEST(Simulator, OpenLoopLowQpsHasIdleGaps)
{
    SimConfig c =
        baseConfig("duplex", mixtralConfig(), 32, 512, 64);
    c.workload.qps = 1.0; // far below capacity
    c.numRequests = 20;
    c.warmupRequests = 2;
    c.maxStages = 50000;
    const SimResult r = run(c);
    // All requests finish, and elapsed spans the arrival horizon.
    EXPECT_GT(r.metrics.totalTokens, 0);
    EXPECT_GT(psToSec(r.metrics.elapsed), 15.0);
}

TEST(Simulator, OverloadGrowsT2ft)
{
    // Fig. 13: past saturation, queueing delay explodes T2FT.
    SimConfig low = baseConfig("gpu", mixtralConfig(), 16, 2048,
                               256);
    low.workload.qps = 0.5;
    low.numRequests = 24;
    low.warmupRequests = 4;
    low.maxStages = 50000;
    SimConfig high = low;
    high.workload.qps = 50.0;
    const double t2ft_low = run(low).metrics.t2ftMs.median();
    const double t2ft_high = run(high).metrics.t2ftMs.median();
    EXPECT_GT(t2ft_high, 2.0 * t2ft_low);
}

TEST(Simulator, SplitSystemLowerThroughput)
{
    // Fig. 16: splitting prefill/decode nodes wastes capacity and
    // utilization vs unified Duplex.
    const ModelConfig m = mixtralConfig();
    SimConfig c = baseConfig("duplex-pe-et", m, 64, 1024, 256);
    c.maxStages = 3000;
    const double unified =
        run(c).metrics.throughputTokensPerSec();
    c.systemName = "duplex-split";
    const double split = run(c).metrics.throughputTokensPerSec();
    EXPECT_LT(split, unified);
}

TEST(Simulator, SplitSystemCompletesRequests)
{
    SimConfig c =
        baseConfig("duplex-split", mixtralConfig(), 16, 256, 64);
    c.maxStages = 20000;
    const SimResult r = run(c);
    EXPECT_GT(r.metrics.e2eMs.count(), 0u);
    EXPECT_GT(r.metrics.totalTokens, 0);
}

TEST(Simulator, HeteroRunsAndTrailsDuplex)
{
    const ModelConfig m = mixtralConfig();
    const double hetero = throughput("hetero", m, 32, 1024, 256);
    const double dup = throughput("duplex-pe", m, 32, 1024, 256);
    EXPECT_GT(hetero, 0.0);
    EXPECT_GT(dup, hetero);
}

TEST(Simulator, GrokTwoNodeRuns)
{
    const double thr =
        throughput("duplex-pe-et", grok1Config(), 32, 256, 128);
    EXPECT_GT(thr, 0.0);
}

} // namespace
} // namespace duplex
