/**
 * @file
 * Unit tests for the CPU count: the cgroup quota parser over fake
 * cgroup trees, and the process's own count.
 */

#include <gtest/gtest.h>

#include <climits>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/cpus.hh"

namespace duplex
{
namespace
{

namespace fs = std::filesystem;

/** A scratch cgroup mount with files written on demand. */
class FakeCgroup : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = fs::path(::testing::TempDir()) /
                ("cgroup_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
        fs::remove_all(root_);
        fs::create_directories(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    void
    write(const std::string &file, const std::string &text)
    {
        const fs::path path = root_ / file;
        fs::create_directories(path.parent_path());
        std::ofstream(path) << text;
    }

    int quota(const std::string &self) const
    {
        return cgroupQuotaCpus(root_.string(), self);
    }

    fs::path root_;
};

TEST_F(FakeCgroup, NoQuotaFilesMeansNoLimit)
{
    EXPECT_EQ(quota("0::/a/b\n"), INT_MAX);
    EXPECT_EQ(quota(""), INT_MAX);
}

TEST_F(FakeCgroup, SmallestAncestorQuotaRoundsDown)
{
#if defined(__linux__)
    write("a/b/cpu.max", "max 100000\n");
    write("a/cpu.max", "250000 100000\n");
    // Other hierarchies' lines come first on hybrid hosts.
    EXPECT_EQ(quota("12:cpu:/x\n0::/a/b\n"), 2);
    EXPECT_EQ(quota("0::/a/b/\n"), 2);
    EXPECT_EQ(quota("0::/a/b"), 2);
    write("cpu.max", "150000 100000\n");
    EXPECT_EQ(quota("0::/a/b\n"), 1);
    // A sibling's limit does not apply.
    write("c/cpu.max", "100000 100000\n");
    EXPECT_EQ(quota("0::/a/b\n"), 1);
    write("cpu.max", "100000000 100000\n");
    EXPECT_EQ(quota("0::/a/b\n"), 2);
    // The root's own line.
    EXPECT_EQ(quota("0::/\n"), 1000);
#else
    GTEST_SKIP() << "cgroups are Linux only";
#endif
}

TEST_F(FakeCgroup, UnlimitedOrMalformedQuotaIsIgnored)
{
    write("a/cpu.max", "max 100000\n");
    EXPECT_EQ(quota("0::/a\n"), INT_MAX);
    write("a/cpu.max", "garbage\n");
    EXPECT_EQ(quota("0::/a\n"), INT_MAX);
    write("a/cpu.max", "50000 0\n");
    EXPECT_EQ(quota("0::/a\n"), INT_MAX);
    write("a/cpu.max", "");
    EXPECT_EQ(quota("0::/a\n"), INT_MAX);
}

TEST_F(FakeCgroup, VersionOneQuota)
{
#if defined(__linux__)
    write("cpu/cpu.cfs_period_us", "100000\n");
    write("cpu/cpu.cfs_quota_us", "-1\n");
    EXPECT_EQ(quota("4:cpu,cpuacct:/\n"), INT_MAX);
    write("cpu/cpu.cfs_quota_us", "300000\n");
    EXPECT_EQ(quota("4:cpu,cpuacct:/\n"), 3);
    // A v2 limit below it wins.
    write("a/cpu.max", "100000 100000\n");
    EXPECT_EQ(quota("4:cpu,cpuacct:/\n0::/a\n"), 1);
#else
    GTEST_SKIP() << "cgroups are Linux only";
#endif
}

TEST(Cpus, UsableCpusIsAtLeastOne)
{
    const int cpus = usableCpus();
    std::printf("[ cpus     ] this process may use %d CPU(s)\n", cpus);
    EXPECT_GE(cpus, 1);
}

} // namespace
} // namespace duplex
