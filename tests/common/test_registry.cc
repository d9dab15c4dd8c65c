/**
 * @file
 * One check of the registry messages over all five experiment axes
 * (systems, workloads, scheduling, routing and eviction policies):
 * an unknown id is fatal and lists the known ids sorted, and a
 * duplicate id is fatal naming what the axis holds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fleet/policy.hh"
#include "kvcache/prefix_cache.hh"
#include "sched/policy.hh"
#include "sim/registry.hh"
#include "workload/registry.hh"

namespace duplex
{
namespace
{

/**
 * Looking up an unknown id in @p registry is fatal with
 * "<prefix> 'no-such-id' (known: <ids, sorted>)".
 */
template <typename AxisRegistry>
void
expectUnknownListsSortedIds(const AxisRegistry &registry,
                            const std::string &prefix)
{
    std::vector<std::string> ids = registry.ids();
    ASSERT_FALSE(ids.empty());
    std::sort(ids.begin(), ids.end());
    std::string known;
    for (const std::string &id : ids)
        known += (known.empty() ? "" : ", ") + id;
    EXPECT_EXIT(registry.summary("no-such-id"),
                ::testing::ExitedWithCode(1),
                prefix + " 'no-such-id' \\(known: " + known + "\\)");
}

TEST(RegistryMessages, Systems)
{
    expectUnknownListsSortedIds(SystemRegistry::instance(),
                                "SystemRegistry: unknown system");
    EXPECT_EXIT(registerServingSystem(
                    "gpu", "GPU", "duplicate",
                    [](const ModelConfig &, const SystemOptions &) {
                        return std::unique_ptr<ServingSystem>();
                    }),
                ::testing::ExitedWithCode(1),
                "SystemRegistry: duplicate system id 'gpu'");
}

TEST(RegistryMessages, Workloads)
{
    expectUnknownListsSortedIds(WorkloadRegistry::instance(),
                                "WorkloadRegistry: unknown workload");
    EXPECT_EXIT(registerWorkloadSource(
                    "synthetic", "Synthetic", "duplicate",
                    [](const WorkloadSpec &) {
                        return std::unique_ptr<WorkloadSource>();
                    }),
                ::testing::ExitedWithCode(1),
                "WorkloadRegistry: duplicate workload id 'synthetic'");
}

TEST(RegistryMessages, SchedulingPolicies)
{
    expectUnknownListsSortedIds(
        SchedulingPolicyRegistry::instance(),
        "SchedulingPolicyRegistry: unknown policy");
    EXPECT_EXIT(registerSchedulingPolicy(
                    "fcfs", "duplicate",
                    [] { return std::unique_ptr<SchedulingPolicy>(); }),
                ::testing::ExitedWithCode(1),
                "SchedulingPolicyRegistry: duplicate policy id 'fcfs'");
}

TEST(RegistryMessages, RoutingPolicies)
{
    expectUnknownListsSortedIds(RoutingPolicyRegistry::instance(),
                                "RoutingPolicyRegistry: unknown policy");
    EXPECT_EXIT(registerRoutingPolicy(
                    "round-robin", "duplicate",
                    [] { return std::unique_ptr<RoutingPolicy>(); }),
                ::testing::ExitedWithCode(1),
                "RoutingPolicyRegistry: duplicate policy id "
                "'round-robin'");
}

TEST(RegistryMessages, EvictionPolicies)
{
    expectUnknownListsSortedIds(EvictionPolicyRegistry::instance(),
                                "EvictionPolicyRegistry: unknown policy");
    EXPECT_EXIT(registerEvictionPolicy(
                    "lru", "duplicate",
                    [] { return std::unique_ptr<EvictionPolicy>(); }),
                ::testing::ExitedWithCode(1),
                "EvictionPolicyRegistry: duplicate policy id 'lru'");
}

} // namespace
} // namespace duplex
