/**
 * @file
 * How many CPUs this process may use: its affinity mask, capped by
 * its cgroup CPU quota. The expert draws size their helper threads
 * from it.
 */

#ifndef DUPLEX_COMMON_CPUS_HH
#define DUPLEX_COMMON_CPUS_HH

#include <string>

namespace duplex
{

/**
 * Whole CPUs a cgroup CPU quota grants, INT_MAX if none is set (or
 * off Linux). @p self_cgroup is the text of /proc/self/cgroup;
 * @p root is where the cgroup hierarchy is mounted, without a
 * trailing slash. Reads the cgroup v2 `cpu.max` of the process's own
 * cgroup and of every ancestor up to @p root, and the v1
 * `cpu/cpu.cfs_quota_us` and `cpu/cpu.cfs_period_us` under @p root,
 * and returns the smallest quota / period, rounded down.
 */
int cgroupQuotaCpus(const std::string &root, const std::string &self_cgroup);

/**
 * CPUs this process may run on: the CPUs in its affinity mask, at
 * most its cgroup CPU quota, at least 1. Reads the files each call.
 */
int usableCpus();

} // namespace duplex

#endif // DUPLEX_COMMON_CPUS_HH
