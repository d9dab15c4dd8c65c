#include "common/cpus.hh"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <thread>

#if defined(__linux__)
#include <fcntl.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace duplex
{

namespace
{

#if defined(__linux__)

/**
 * The start of @p path, at most 4 KB; empty if it cannot be read.
 * Plain reads: a first stdio or iostream call maps in parsing and
 * locale code that shows in a small run's peak RSS.
 */
std::string
readHead(const std::string &path)
{
    std::string text;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return text;
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ::close(fd);
    if (n > 0)
        text.assign(buf, static_cast<std::size_t>(n));
    return text;
}

/** The leading integers of @p text, at most two, into @p out; how many. */
int
leadingInts(const std::string &text, long long out[2])
{
    const char *p = text.c_str();
    int n = 0;
    for (char *end; n < 2; p = end, ++n) {
        out[n] = std::strtoll(p, &end, 10);
        if (end == p)
            break;
    }
    return n;
}

#endif

} // namespace

int
cgroupQuotaCpus([[maybe_unused]] const std::string &root,
                [[maybe_unused]] const std::string &self_cgroup)
{
    long long cpus = INT_MAX;
#if defined(__linux__)
    auto grant = [&](long long quota, long long period) {
        if (quota > 0 && period > 0)
            cpus = std::min(cpus, quota / period);
    };
    long long v[2], period[2];
    // The v2 line is "0::<path>"; "max <period>" reads no integer.
    const std::string &self = self_cgroup;
    for (std::size_t at = 0, end; at < self.size(); at = end + 1) {
        end = std::min(self.find('\n', at), self.size());
        if (self.compare(at, 3, "0::") != 0)
            continue;
        for (std::string dir = root + self.substr(at + 3, end - at - 3);
             dir.size() >= root.size(); dir.erase(dir.rfind('/')))
            if (leadingInts(readHead(dir + "/cpu.max"), v) == 2)
                grant(v[0], v[1]);
    }
    if (leadingInts(readHead(root + "/cpu/cpu.cfs_quota_us"), v) == 1 &&
        leadingInts(readHead(root + "/cpu/cpu.cfs_period_us"), period) ==
            1)
        grant(v[0], period[0]);
#endif
    return static_cast<int>(cpus);
}

int
usableCpus()
{
    int cpus = static_cast<int>(std::thread::hardware_concurrency());
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        cpus = CPU_COUNT(&set);
    cpus = std::min(cpus, cgroupQuotaCpus("/sys/fs/cgroup",
                                          readHead("/proc/self/cgroup")));
#endif
    return std::max(cpus, 1);
}

} // namespace duplex
