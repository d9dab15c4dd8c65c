/**
 * @file
 * Cluster-level stage execution tests: time composition, breakdown
 * accounting, capacity budgets and the hetero strawman.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "sim/presets.hh"

namespace duplex
{
namespace
{

StageShape
decodeStage(int batch, std::int64_t ctx)
{
    StageShape s;
    for (int i = 0; i < batch; ++i)
        s.decodeContexts.push_back(ctx);
    return s;
}

StageShape
mixedStage(int batch, std::int64_t ctx, std::int64_t lin)
{
    StageShape s = decodeStage(batch, ctx);
    s.prefillLengths.push_back(lin);
    return s;
}

TEST(Cluster, EmptyStageFree)
{
    Cluster c(makeClusterConfig("gpu", mixtralConfig()));
    const StageResult r = c.executeStage({});
    EXPECT_EQ(r.time, 0);
    EXPECT_DOUBLE_EQ(r.totalEnergyJ(), 0.0);
}

TEST(Cluster, DecodeStagePositiveEverything)
{
    Cluster c(makeClusterConfig("gpu", mixtralConfig()));
    const StageResult r = c.executeStage(decodeStage(32, 2048));
    EXPECT_GT(r.time, 0);
    EXPECT_GT(r.slice(LayerClass::Fc).time, 0);
    EXPECT_GT(r.slice(LayerClass::AttentionDecode).time, 0);
    EXPECT_GT(r.slice(LayerClass::Moe).time, 0);
    EXPECT_GT(r.slice(LayerClass::Communication).time, 0);
    EXPECT_EQ(r.slice(LayerClass::AttentionPrefill).time, 0);
    EXPECT_GT(r.totalEnergyJ(), 0.0);
}

TEST(Cluster, MoeAndAttentionDominateGpuDecode)
{
    // The Fig. 4(a) observation: in decoding-only stages on GPUs,
    // MoE + attention take most of the time.
    Cluster c(makeClusterConfig("gpu", mixtralConfig()));
    const StageResult r = c.executeStage(decodeStage(64, 2048));
    const double moe_attn = psToMs(
        r.slice(LayerClass::Moe).time +
        r.slice(LayerClass::AttentionDecode).time);
    EXPECT_GT(moe_attn, 0.5 * psToMs(r.time));
}

TEST(Cluster, MixedStageAddsPrefillWork)
{
    Cluster c(makeClusterConfig("gpu", mixtralConfig()));
    const StageResult dec = c.executeStage(decodeStage(32, 2048));
    Cluster c2(makeClusterConfig("gpu", mixtralConfig()));
    const StageResult mix =
        c2.executeStage(mixedStage(32, 2048, 2048));
    EXPECT_GT(mix.time, dec.time);
    EXPECT_GT(mix.slice(LayerClass::AttentionPrefill).time, 0);
}

TEST(Cluster, DuplexFasterThanGpuOnDecode)
{
    Cluster gpu(makeClusterConfig("gpu", mixtralConfig()));
    Cluster dup(
        makeClusterConfig("duplex", mixtralConfig()));
    const StageShape s = decodeStage(64, 2048);
    EXPECT_LT(dup.executeStage(s).time, gpu.executeStage(s).time);
}

TEST(Cluster, CoProcessingHelpsMixedStage)
{
    Cluster base(
        makeClusterConfig("duplex", mixtralConfig()));
    Cluster pe(
        makeClusterConfig("duplex-pe", mixtralConfig()));
    const StageShape s = mixedStage(64, 2048, 2048);
    EXPECT_LE(pe.executeStage(s).time, base.executeStage(s).time);
}

TEST(Cluster, EtIncreasesExpertsOnLowEngine)
{
    Cluster pe(
        makeClusterConfig("duplex-pe", mixtralConfig()));
    Cluster et(
        makeClusterConfig("duplex-pe-et", mixtralConfig()));
    const StageShape s = decodeStage(64, 1024);
    pe.executeStage(s);
    et.executeStage(s);
    // EP gives each device 2 experts; ET exposes all 8.
    EXPECT_LE(pe.lastExpertsOnLow(), 2);
    EXPECT_GT(et.lastExpertsOnLow(), 2);
}

TEST(Cluster, DeterministicForSameSeed)
{
    const auto cfg =
        makeClusterConfig("duplex-pe-et", glamConfig(), 42);
    Cluster a(cfg);
    Cluster b(cfg);
    const StageShape s = decodeStage(64, 1024);
    EXPECT_EQ(a.executeStage(s).time, b.executeStage(s).time);
}

TEST(Cluster, SeedChangesExpertDraw)
{
    Cluster a(
        makeClusterConfig("duplex-pe-et", glamConfig(), 1));
    Cluster b(
        makeClusterConfig("duplex-pe-et", glamConfig(), 2));
    const StageShape s = decodeStage(64, 1024);
    // Different gate draws almost surely differ in time.
    EXPECT_NE(a.executeStage(s).time, b.executeStage(s).time);
}

TEST(Cluster, KvBudgetFitsModels)
{
    for (const char *id : {"gpu", "duplex"}) {
        Cluster c(makeClusterConfig(id, mixtralConfig()));
        EXPECT_GT(c.maxKvTokens(), 100000);
    }
    Cluster g(makeClusterConfig("gpu", grok1Config()));
    EXPECT_GT(g.maxKvTokens(), 100000);
}

TEST(Cluster, TimeScalesWithLayers)
{
    ModelConfig small = mixtralConfig();
    small.numLayers = 8;
    auto cfg_small = makeClusterConfig("gpu", small);
    auto cfg_full =
        makeClusterConfig("gpu", mixtralConfig());
    Cluster a(cfg_small);
    Cluster b(cfg_full);
    const StageShape s = decodeStage(32, 1024);
    const double ratio =
        static_cast<double>(b.executeStage(s).time) /
        static_cast<double>(a.executeStage(s).time);
    EXPECT_GT(ratio, 3.4);
    EXPECT_LT(ratio, 4.6);
}

TEST(Cluster, EnergySumsAcrossDevices)
{
    // 2xGPU halves per-device work but doubles device count:
    // total energy stays in the same neighbourhood.
    Cluster one(makeClusterConfig("gpu", mixtralConfig()));
    Cluster two(
        makeClusterConfig("gpu-2x", mixtralConfig()));
    const StageShape s = decodeStage(64, 2048);
    const double j1 = one.executeStage(s).totalEnergyJ();
    const double j2 = two.executeStage(s).totalEnergyJ();
    EXPECT_NEAR(j2, j1, j1 * 0.25);
}

/** Token counts 5, 69, 133 and 197 share one slot of the 16-entry
 *  token-count memo (slot 5); 69 comes back as a mixed stage too. */
std::vector<StageShape>
collidingStages()
{
    return {decodeStage(5, 1024),  decodeStage(69, 1024),
            decodeStage(133, 512), decodeStage(5, 2048),
            mixedStage(5, 1024, 64), decodeStage(197, 256),
            decodeStage(69, 4096), decodeStage(5, 1024)};
}

void
expectSameStage(const StageResult &a, const StageResult &b)
{
    EXPECT_EQ(a.time, b.time);
    for (int c = 0; c < kNumLayerClasses; ++c) {
        EXPECT_EQ(a.byClass[c].time, b.byClass[c].time) << c;
        EXPECT_EQ(a.byClass[c].energy.dramJ, b.byClass[c].energy.dramJ)
            << c;
        EXPECT_EQ(a.byClass[c].energy.computeJ,
                  b.byClass[c].energy.computeJ)
            << c;
    }
}

TEST(Cluster, TokenMemoMatchesFreshPricingOnCollisions)
{
    // Dense models draw nothing, so a fresh cluster per stage (an
    // empty memo) prices each stage exactly as a long-lived one must
    // after every colliding fill and hit.
    for (const ClusterPreset &preset : clusterPresets()) {
        for (const ModelConfig &m : {llama3Config(), optConfig()}) {
            SCOPED_TRACE(std::string(preset.id) + " " + m.name);
            Cluster memo(makeClusterConfig(preset.id, m));
            for (const StageShape &s : collidingStages()) {
                Cluster fresh(makeClusterConfig(preset.id, m));
                expectSameStage(memo.executeStage(s),
                                fresh.executeStage(s));
            }
        }
    }
}

TEST(Cluster, TokenMemoMatchesReferenceOnMoeCollisions)
{
    // MoE models draw experts, so the twin runs the same sequence
    // through executeStageReference, which prices the token-count
    // groups afresh every stage: times exact, energies within the
    // reference's 1e-12 relative.
    for (const ClusterPreset &preset : clusterPresets()) {
        for (const ModelConfig &m : {mixtralConfig(), grok1Config()}) {
            SCOPED_TRACE(std::string(preset.id) + " " + m.name);
            Cluster memo(makeClusterConfig(preset.id, m));
            Cluster ref(makeClusterConfig(preset.id, m));
            for (const StageShape &s : collidingStages()) {
                const StageResult a = memo.executeStage(s);
                const StageResult b = ref.executeStageReference(s);
                EXPECT_EQ(a.time, b.time);
                EXPECT_EQ(a.expertTokens, b.expertTokens);
                for (int c = 0; c < kNumLayerClasses; ++c) {
                    EXPECT_EQ(a.byClass[c].time, b.byClass[c].time);
                    EXPECT_NEAR(a.byClass[c].energy.totalJ(),
                                b.byClass[c].energy.totalJ(),
                                1e-12 * b.byClass[c].energy.totalJ());
                }
            }
        }
    }
}

/**
 * 200 stages mixing decode batches and prefills. Every eighth stage
 * has 4 x ExpertPriceCache::kEntries tokens, so an 8-expert top-2
 * layer gives each expert about kEntries + n tokens, landing in the
 * slots that the decode stages' counts n fill. Under a skewed gate,
 * one layer's experts also share slots.
 */
std::vector<StageShape>
priceCacheStages()
{
    const std::int64_t wrap = ExpertPriceCache::kEntries;
    std::vector<StageShape> stages;
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const int batch = static_cast<int>(rng.uniformInt(1, 32));
        StageShape s = decodeStage(batch, rng.uniformInt(64, 4096));
        if (i % 4 == 1)
            s.prefillLengths.push_back(rng.uniformInt(1, 600));
        if (i % 8 == 3)
            s.prefillLengths.push_back(4 * wrap - batch);
        stages.push_back(s);
    }
    return stages;
}

/** Exact equality: stage time, expert tokens and the MoE slice. */
void
expectSameMoe(const StageResult &a, const StageResult &b)
{
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.expertTokens, b.expertTokens);
    const ClassSlice &x = a.slice(LayerClass::Moe);
    const ClassSlice &y = b.slice(LayerClass::Moe);
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.energy.dramJ, y.energy.dramJ);
    EXPECT_EQ(x.energy.computeJ, y.energy.computeJ);
}

TEST(Cluster, ExpertPriceCacheMatchesReferenceBitForBit)
{
    // The cache lives across layers and stages; the twin prices
    // every expert afresh through executeStageReference. The MoE
    // step is the same float sum either way, so its slice is
    // bit-equal, not merely within 1e-12.
    const std::vector<StageShape> stages = priceCacheStages();
    for (const ClusterPreset &preset : clusterPresets()) {
        for (const ModelConfig &m :
             {mixtralConfig(), glamConfig(), grok1Config()}) {
            for (GatePolicy gate :
                 {GatePolicy::Uniform, GatePolicy::Zipf}) {
                // The skewed gate is slow to draw: Mixtral covers it.
                if (gate == GatePolicy::Zipf && m.name != "Mixtral")
                    continue;
                SCOPED_TRACE(std::string(preset.id) + " " + m.name +
                             (gate == GatePolicy::Zipf ? " zipf" : ""));
                ClusterConfig cfg = makeClusterConfig(preset.id, m);
                cfg.gatePolicy = gate;
                Cluster cached(cfg);
                Cluster ref(cfg);
                for (const StageShape &s : stages)
                    expectSameMoe(cached.executeStage(s),
                                  ref.executeStageReference(s));
            }
        }
    }
    for (GatePolicy gate : {GatePolicy::Uniform, GatePolicy::Zipf}) {
        SCOPED_TRACE(gate == GatePolicy::Zipf ? "hetero zipf" : "hetero");
        HeteroConfig cfg = makeHeteroConfig(mixtralConfig());
        cfg.gatePolicy = gate;
        HeteroCluster cached(cfg);
        HeteroCluster ref(cfg);
        for (const StageShape &s : stages)
            expectSameMoe(cached.executeStage(s),
                          ref.executeStageReference(s));
    }
}

TEST(HeteroCluster, ExecutesAndSplitsClasses)
{
    HeteroCluster h(makeHeteroConfig(mixtralConfig()));
    const StageResult r = h.executeStage(decodeStage(32, 2048));
    EXPECT_GT(r.time, 0);
    EXPECT_GT(r.slice(LayerClass::Moe).time, 0);
    EXPECT_GT(r.slice(LayerClass::Communication).time, 0);
}

TEST(HeteroCluster, KvCapacityBelowHomogeneous)
{
    // Fig. 5(c): the hetero system wastes capacity, shrinking the
    // maximum batch.
    Cluster gpu(makeClusterConfig("gpu", mixtralConfig()));
    HeteroCluster h(makeHeteroConfig(mixtralConfig()));
    EXPECT_LT(h.maxKvTokens(), gpu.maxKvTokens());
}

TEST(HeteroCluster, MixedStageMoeSuffers)
{
    // The Section III-B pathology: mixed-stage MoE on weak PIM
    // compute hurts the hetero system vs Duplex.
    HeteroCluster h(makeHeteroConfig(mixtralConfig()));
    Cluster dup(
        makeClusterConfig("duplex-pe", mixtralConfig()));
    const StageShape s = mixedStage(32, 2048, 2048);
    EXPECT_GT(h.executeStage(s).time, dup.executeStage(s).time);
}

} // namespace
} // namespace duplex
