/**
 * @file
 * Table I verification: every preset must reproduce its published
 * architecture shape and land near its published parameter count.
 */

#include <gtest/gtest.h>

#include "model/config.hh"

namespace duplex
{
namespace
{

struct TableRow
{
    const char *name;
    double paramsB;
    int layers;
    int hidden;
    int interm;
    int heads;
    int degGrp;
    int numExperts;
    int topK;
};

class TableISweep : public ::testing::TestWithParam<TableRow>
{
};

TEST_P(TableISweep, MatchesPublishedShape)
{
    const TableRow row = GetParam();
    const ModelConfig m = modelByName(row.name);
    EXPECT_EQ(m.numLayers, row.layers);
    EXPECT_EQ(m.hidden, row.hidden);
    EXPECT_EQ(m.intermediate, row.interm);
    EXPECT_EQ(m.numHeads, row.heads);
    EXPECT_EQ(m.degGrp, row.degGrp);
    EXPECT_EQ(m.numExperts, row.numExperts);
    EXPECT_EQ(m.topK, row.topK);
}

TEST_P(TableISweep, ParameterCountWithinTwoPercent)
{
    const TableRow row = GetParam();
    const ModelConfig m = modelByName(row.name);
    EXPECT_NEAR(m.totalParams() / 1e9, row.paramsB,
                row.paramsB * 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    TableI, TableISweep,
    ::testing::Values(
        TableRow{"mixtral", 47.0, 32, 4096, 14336, 32, 4, 8, 2},
        TableRow{"glam", 143.0, 32, 4096, 16384, 32, 1, 64, 2},
        TableRow{"grok1", 314.0, 64, 6144, 32768, 48, 6, 8, 2},
        TableRow{"opt", 66.0, 64, 9216, 36864, 72, 1, 0, 0},
        TableRow{"llama3", 70.0, 80, 8192, 28672, 64, 8, 0, 0}));

TEST(ModelConfig, HeadGeometry)
{
    const ModelConfig m = mixtralConfig();
    EXPECT_EQ(m.headDim(), 128);
    EXPECT_EQ(m.kvHeads(), 8);
}

TEST(ModelConfig, GlamAlternatesMoeLayers)
{
    const ModelConfig m = glamConfig();
    EXPECT_TRUE(m.isMoeLayer(0));
    EXPECT_FALSE(m.isMoeLayer(1));
    EXPECT_TRUE(m.isMoeLayer(2));
    EXPECT_EQ(m.numMoeLayers(), 16);
}

TEST(ModelConfig, MixtralAllLayersMoe)
{
    const ModelConfig m = mixtralConfig();
    EXPECT_EQ(m.numMoeLayers(), m.numLayers);
}

TEST(ModelConfig, DenseModelsHaveNoMoe)
{
    EXPECT_EQ(optConfig().numMoeLayers(), 0);
    EXPECT_EQ(llama3Config().numMoeLayers(), 0);
    EXPECT_FALSE(optConfig().isMoeLayer(0));
}

TEST(ModelConfig, NumMoeLayersCountsIsMoeLayer)
{
    // The closed form must count exactly the layers isMoeLayer marks.
    ModelConfig m = mixtralConfig();
    for (int period = 1; period <= 4; ++period)
        for (int layers = 0; layers <= 33; ++layers) {
            m.moePeriod = period;
            m.numLayers = layers;
            int count = 0;
            for (int l = 0; l < layers; ++l)
                count += m.isMoeLayer(l) ? 1 : 0;
            EXPECT_EQ(m.numMoeLayers(), count)
                << "period " << period << " layers " << layers;
        }
}

TEST(ModelConfig, FfnFcCount)
{
    EXPECT_EQ(mixtralConfig().ffnFcCount(), 3);
    EXPECT_EQ(glamConfig().ffnFcCount(), 2);
    EXPECT_EQ(optConfig().ffnFcCount(), 2);
    EXPECT_EQ(llama3Config().ffnFcCount(), 3);
}

TEST(ModelConfig, KvBytesPerToken)
{
    // Mixtral: 32 layers x 2 x 8 kv-heads x 128 dims x 2 B = 128 KiB.
    EXPECT_EQ(mixtralConfig().kvBytesPerToken(), 128u * 1024);
    // GQA shrinks KV by degGrp: OPT (MHA) pays heads x headDim.
    EXPECT_EQ(optConfig().kvBytesPerToken(),
              64ull * 2 * 72 * 128 * 2);
}

TEST(ModelConfig, GqaReducesKv)
{
    // Same geometry except degGrp: KV shrinks by the group degree.
    ModelConfig mha = mixtralConfig();
    mha.degGrp = 1;
    EXPECT_EQ(mha.kvBytesPerToken(),
              mixtralConfig().kvBytesPerToken() * 4);
}

TEST(ModelConfig, WeightBytesAreFp16)
{
    const ModelConfig m = mixtralConfig();
    EXPECT_EQ(m.weightBytes(),
              static_cast<Bytes>(m.totalParams()) * 2);
}

TEST(ModelConfig, LookupIsCaseInsensitive)
{
    EXPECT_EQ(modelByName("MIXTRAL").name, "Mixtral");
    EXPECT_EQ(modelByName("Grok").name, "Grok1");
}

} // namespace
} // namespace duplex
