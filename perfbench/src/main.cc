/**
 * @file
 * The benchmark's measuring program; perfbench/run.py builds it and
 * is the command to run (see perfbench/README.md).
 *
 *   perfbench_run --workload W --seed N --seconds S --trace 0|1
 *                 [--commit ID] [--trace-out PATH]
 *   perfbench_run --workload W --seed N --setup-only
 *
 * --trace 0 repeats the workload untraced for S seconds (the first
 * repetition warms up and is not timed) and reports the end-to-end
 * metrics as medians over repetitions. --trace 1 alternates untraced
 * and traced repetitions and reports the per-layer metrics (medians
 * over traced repetitions) plus trace.overhead_frac. Every
 * repetition is checked (workloads.hh) and must reproduce the first
 * repetition's digest. --setup-only times the workload's one-time
 * set-up from process start and prints `setup_s <seconds>`; run.py
 * runs it several times and reports the median.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics. Exit status 0 when every repetition passed, 1
 * when any failed, 2 on bad arguments.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rss.hh"
#include "digest.hh"
#include "layers.hh"
#include "trace.hh"
#include "workloads.hh"
#include "wrappers.hh"

using namespace perfbench;

namespace
{

const std::int64_t kProcessStart = nowNs();

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string commit = "unknown";
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_run: %s\n"
                 "usage: perfbench_run --workload W --seed N "
                 "--seconds S --trace 0|1 [--commit ID] "
                 "[--trace-out PATH] | --setup-only\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            o.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(o.seconds > 0.0))
                usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            o.trace = value == "1";
        } else if (flag == "--commit") {
            o.commit = value;
        } else if (flag == "--trace-out") {
            o.traceOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/**
 * Peak resident set size of this process image, in MB. On Linux the
 * getrusage peak survives execve, so it would report the launching
 * script's footprint when that is larger; VmHWM in /proc/self/status
 * belongs to this image alone. Elsewhere, the getrusage peak.
 */
double
peakRssMb()
{
    if (std::FILE *status = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kb = -1;
        while (std::fgets(line, sizeof line, status) != nullptr)
            if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
                break;
        std::fclose(status);
        if (kb >= 0)
            return static_cast<double>(kb) / 1024.0;
    }
    return duplex::peakRssMb();
}

/**
 * The median of the fastest tenth of @p rates, and of at least the
 * fastest three. Other tenants of a shared host only ever slow a
 * repetition down, and on a shared VM they do so for seconds at a
 * time, by up to a third: the fastest repetitions estimate the
 * simulator's own speed as long as some part of the run was
 * uncontended. Taking the median of several keeps one lucky
 * repetition from setting the number.
 */
double
fastestTenthMedian(std::vector<double> rates)
{
    std::sort(rates.begin(), rates.end());
    const std::size_t keep = std::min(
        rates.size(), std::max<std::size_t>(3, rates.size() / 10));
    rates.erase(rates.begin(), rates.end() - keep);
    return median(rates);
}

/** Checks every repetition against the first one's digest. */
class Verifier
{
  public:
    int attempted = 0;
    int failed = 0;

    /** Record one repetition; true when it passed. */
    bool accept(const Outcome &o, const char *what)
    {
        ++attempted;
        bool ok = o.violations.empty();
        for (const std::string &v : o.violations)
            std::printf("check failed (%s repetition %d): %s\n", what,
                        attempted, v.c_str());
        if (reference_.empty()) {
            reference_ = o.digest;
            std::printf("digest %s\n", digestHash(o.digest).c_str());
            std::printf("%s\n", o.digest.c_str());
        } else if (o.digest != reference_) {
            ok = false;
            std::printf("check failed (%s repetition %d): digest %s "
                        "differs from the first repetition's %s\n",
                        what, attempted, digestHash(o.digest).c_str(),
                        digestHash(reference_).c_str());
        }
        failed += ok ? 0 : 1;
        return ok;
    }

  private:
    std::string reference_;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

int
report(const Verifier &verifier, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("metric failed_frac = %.6g ratio\n",
                verifier.attempted > 0
                    ? static_cast<double>(verifier.failed) /
                          verifier.attempted
                    : 0.0);
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                verifier.failed == 0 ? "true" : "false",
                verifier.attempted, verifier.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return verifier.failed == 0 ? 0 : 1;
}

/** End-to-end metrics: untraced repetitions for the whole budget. */
int
measure(BenchWorkload &w, const Options &o)
{
    Verifier verifier;
    std::vector<double> request_rates;
    std::vector<double> stage_rates;
    double rss_mb = 0.0;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(o.seconds * 1e9);
    do {
        const Outcome out = w.run(false);
        verifier.accept(out, "untraced");
        if (verifier.attempted == 1) {
            // The peak of set-up plus one campaign, what one run of
            // the workload costs; later repetitions only add
            // allocator churn that depends on how many fit the budget.
            rss_mb = peakRssMb();
            continue; // warm-up, not timed
        }
        request_rates.push_back(static_cast<double>(out.requests) /
                                out.hostSec);
        stage_rates.push_back(static_cast<double>(out.stages) /
                              out.hostSec);
    } while (nowNs() < deadline || verifier.attempted < 3);

    std::vector<double> sorted = stage_rates;
    std::sort(sorted.begin(), sorted.end());
    std::printf("timed repetitions: %zu, stages/s min %.6g median "
                "%.6g fastest-tenth median %.6g max %.6g\n",
                sorted.size(), sorted.front(), median(sorted),
                fastestTenthMedian(sorted), sorted.back());
    return report(verifier,
                  {{"sim_requests_per_host_s",
                    fastestTenthMedian(request_rates), "1/s"},
                   {"sim_stages_per_host_s",
                    fastestTenthMedian(stage_rates), "1/s"},
                   {"peak_rss_mb", rss_mb, "MB"}});
}

/** Per-layer metrics: traced repetitions paired with untraced ones. */
int
measureTraced(BenchWorkload &w, const Options &o)
{
    Tracer &tracer = Tracer::instance();
    Verifier verifier;
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::map<std::string, std::vector<double>> values;
    std::vector<std::string> order;
    std::map<std::string, std::string> units;

    verifier.accept(w.run(false), "untraced warm-up");
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(o.seconds * 1e9);
    do {
        const Outcome plain = w.run(false);
        verifier.accept(plain, "untraced");
        untraced_s.push_back(plain.hostSec);

        tracer.clear();
        const Outcome traced = w.run(true);
        verifier.accept(traced, "traced");
        traced_s.push_back(traced.hostSec);
        for (const LayerMetric &m :
             layerMetrics(tracer, traced, w.workers())) {
            if (values.find(m.name) == values.end()) {
                order.push_back(m.name);
                units[m.name] = m.unit;
            }
            values[m.name].push_back(m.value);
        }
    } while (nowNs() < deadline);

    if (!o.traceOut.empty() && !tracer.writeChromeTrace(o.traceOut))
        std::fprintf(stderr, "perfbench_run: cannot write %s\n",
                     o.traceOut.c_str());

    std::printf("traced repetitions: %zu\n", traced_s.size());
    std::vector<Metric> metrics;
    for (const std::string &name : order)
        metrics.push_back({name, median(values[name]), units[name]});
    metrics.push_back({"trace.overhead_frac",
                       median(traced_s) / median(untraced_s) - 1.0,
                       "ratio"});
    return report(verifier, metrics);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const std::unique_ptr<BenchWorkload> w =
        makeBenchWorkload(o.workload, o.seed, Size::Full);
    if (w == nullptr)
        usage("unknown workload " + o.workload);

    if (o.setupOnly) {
        w->setup();
        std::printf("setup_s %.9f\n",
                    static_cast<double>(nowNs() - kProcessStart) * 1e-9);
        return 0;
    }

    std::printf("context {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"nproc\": %u, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"commit\": \"%s\"}\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, o.commit.c_str());
    if (o.trace)
        registerTracedComponents();
    w->setup();
    return o.trace ? measureTraced(*w, o) : measure(*w, o);
}
