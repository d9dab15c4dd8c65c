/**
 * @file
 * System-registry tests: every registered system builds and honors
 * the ServingSystem contract, the paper systems keep their ids and
 * display names, and user systems can be added at runtime.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/engine.hh"
#include "sim/registry.hh"

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

TEST(Registry, ListsEveryPaperSystem)
{
    const std::vector<std::string> expected = {
        "gpu",          "gpu-2x",       "duplex",
        "duplex-pe",    "duplex-pe-et", "bank-pim",
        "bankgroup-pim", "hetero",      "duplex-split"};
    const std::vector<std::string> ids = registeredSystems();
    for (const std::string &id : expected) {
        EXPECT_TRUE(SystemRegistry::instance().contains(id))
            << "missing system: " << id;
    }
    EXPECT_GE(ids.size(), expected.size());
}

TEST(Registry, IdsAreSorted)
{
    // Enumeration is lexicographically sorted, not registration
    // order: sweep and bench tables built from ids() must be
    // byte-stable across libstdc++/libc++ (the CI compiler matrix
    // diffs their output).
    const std::vector<std::string> ids = registeredSystems();
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(Registry, RoundTripOverEveryRegisteredSystem)
{
    // Every system builds for Mixtral and honors the full
    // ServingSystem contract through the same interface.
    const SystemRegistry &registry = SystemRegistry::instance();
    std::set<std::string> names;
    for (const std::string &id : registry.ids()) {
        SCOPED_TRACE(id);
        const std::unique_ptr<ServingSystem> system =
            makeSystem(id, mixtralConfig());
        ASSERT_NE(system, nullptr);
        EXPECT_EQ(system->name(), registry.displayName(id));
        EXPECT_FALSE(system->describe().empty());
        EXPECT_FALSE(registry.summary(id).empty());
        EXPECT_GT(system->maxKvTokens(), 0);
        const StageResult r =
            system->executeStage(decodeStage(8, 512));
        EXPECT_GT(r.time, 0);
        names.insert(system->name());
    }
    // Display names are distinct across the registry.
    EXPECT_EQ(names.size(), registry.ids().size());
}

TEST(Registry, SeedReachesTheSystem)
{
    const std::unique_ptr<ServingSystem> a =
        makeSystem("duplex-pe-et", glamConfig(), {1});
    const std::unique_ptr<ServingSystem> b =
        makeSystem("duplex-pe-et", glamConfig(), {2});
    const StageShape s = decodeStage(64, 1024);
    // Different gate draws almost surely differ in time.
    EXPECT_NE(a->executeStage(s).time, b->executeStage(s).time);
}

TEST(Registry, PaperSystemsKeepIdsAndDisplayNames)
{
    // The bench tables print these display names; --list-systems
    // prints the ids in this (sorted) order.
    const std::vector<std::pair<std::string, std::string>> expected =
        {{"bank-pim", "Bank-PIM"},
         {"bankgroup-pim", "BankGroup-PIM"},
         {"duplex", "Duplex"},
         {"duplex-pe", "Duplex+PE"},
         {"duplex-pe-et", "Duplex+PE+ET"},
         {"duplex-split", "Duplex-Split"},
         {"gpu", "GPU"},
         {"gpu-2x", "2xGPU"},
         {"hetero", "Hetero"}};
    std::vector<std::pair<std::string, std::string>> listed;
    const SystemRegistry &registry = SystemRegistry::instance();
    for (const std::string &id : registry.ids()) {
        const bool paper = std::any_of(
            expected.begin(), expected.end(),
            [&](const auto &e) { return e.first == id; });
        if (paper)
            listed.emplace_back(id, registry.displayName(id));
    }
    EXPECT_EQ(listed, expected);
}

TEST(Registry, UnknownSystemIsFatal)
{
    EXPECT_EXIT(
        { makeSystem("no-such-system", mixtralConfig()); },
        ::testing::ExitedWithCode(1), "unknown system");
}

TEST(Registry, UserSystemsPlugIn)
{
    // A new serving system is one registration away — no enum
    // edits, no new entry points.
    if (!SystemRegistry::instance().contains("test-custom")) {
        registerServingSystem(
            "test-custom", "TestCustom",
            "GPU preset under a custom id (test only)",
            [](const ModelConfig &model,
               const SystemOptions &opts) {
                return std::make_unique<ClusterSystem>(
                    "TestCustom",
                    makeClusterConfig("gpu", model, opts.seed));
            });
    }
    SimConfig c;
    c.systemName = "test-custom";
    c.model = mixtralConfig();
    c.maxBatch = 8;
    c.workload.meanInputLen = 128;
    c.workload.meanOutputLen = 32;
    c.numRequests = 16;
    c.warmupRequests = 2;
    c.maxStages = 400;
    const SimResult r = SimulationEngine(c).run();
    EXPECT_GT(r.metrics.totalTokens, 0);
    EXPECT_GT(r.generatedTokens, 0);
}

TEST(Registry, DuplicateRegistrationIsFatal)
{
    EXPECT_EXIT(
        {
            registerServingSystem(
                "gpu", "GPU", "duplicate",
                [](const ModelConfig &model,
                   const SystemOptions &opts) {
                    return std::make_unique<ClusterSystem>(
                        "GPU",
                        makeClusterConfig("gpu", model, opts.seed));
                });
        },
        ::testing::ExitedWithCode(1), "duplicate system id");
}

} // namespace
} // namespace duplex
