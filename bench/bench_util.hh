/**
 * @file
 * Shared helpers for the figure-reproduction benches: standard
 * sweep configurations driven through the SimulationEngine, result
 * formatting, and the one perf-report writer (PerfReport) every
 * perf bench feeds the CI gate (tools/check_perf.py) through.
 *
 * Systems are referred to by registry id ("gpu", "duplex-pe-et",
 * ...); use systemLabel() for table cells.
 */

#ifndef DUPLEX_BENCH_BENCH_UTIL_HH
#define DUPLEX_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/rss.hh"
#include "common/table.hh"
#include "sim/engine.hh"
#include "sim/observers.hh"
#include "sim/registry.hh"
#include "sim/sweep.hh"

namespace duplex
{

/** Print a bench banner naming the paper artifact reproduced. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Display name of a registered system ("duplex-pe" -> "Duplex+PE"). */
inline const std::string &
systemLabel(const std::string &id)
{
    return SystemRegistry::instance().displayName(id);
}

/** The benches' standard sweep configuration. */
inline SimConfig
sweepConfig(const std::string &system, const ModelConfig &model,
            int batch, std::int64_t lin, std::int64_t lout,
            int num_requests, std::int64_t max_stages)
{
    SimConfig c;
    c.systemName = system;
    c.model = model;
    c.maxBatch = batch;
    c.workload.meanInputLen = lin;
    c.workload.meanOutputLen = lout;
    c.numRequests = num_requests;
    c.warmupRequests = defaultWarmupRequests(batch);
    c.maxStages = max_stages;
    return c;
}

/** Throughput-sweep configuration: enough stages for steady state. */
inline SimConfig
throughputConfig(const std::string &system, const ModelConfig &model,
                 int batch, std::int64_t lin, std::int64_t lout,
                 std::int64_t max_stages = 300)
{
    return sweepConfig(system, model, batch, lin, lout, 4 * batch,
                       max_stages);
}

/** Latency-sweep configuration: runs until the requests complete. */
inline SimConfig
latencyConfig(const std::string &system, const ModelConfig &model,
              int batch, std::int64_t lin, std::int64_t lout,
              int num_requests, std::int64_t max_stages = 20000)
{
    return sweepConfig(system, model, batch, lin, lout, num_requests,
                       max_stages);
}

/**
 * Run a batch of independent configurations on the SweepRunner's
 * worker pool; results come back in input order, so benches build
 * their whole figure sweep up front and format afterwards.
 */
inline std::vector<SimResult>
runSweep(const std::vector<SimConfig> &configs)
{
    return SweepRunner().run(configs);
}

/** Throughput-sweep simulation: enough stages for a steady state. */
inline SimResult
runThroughput(const std::string &system, const ModelConfig &model,
              int batch, std::int64_t lin, std::int64_t lout,
              std::int64_t max_stages = 300)
{
    SimulationEngine engine(
        throughputConfig(system, model, batch, lin, lout,
                         max_stages));
    return engine.run();
}

/** Latency-sweep simulation: runs until the requests complete. */
inline SimResult
runLatency(const std::string &system, const ModelConfig &model,
           int batch, std::int64_t lin, std::int64_t lout,
           int num_requests, std::int64_t max_stages = 20000)
{
    SimulationEngine engine(latencyConfig(system, model, batch, lin,
                                          lout, num_requests,
                                          max_stages));
    return engine.run();
}

/** The (Lin, Lout) sweep each model uses in Figs. 11/15. */
inline std::vector<std::pair<std::int64_t, std::int64_t>>
lengthSweep(const ModelConfig &model)
{
    if (model.name == "GLaM")
        return {{512, 512}, {1024, 1024}, {2048, 2048}};
    return {{256, 256}, {1024, 1024}, {4096, 4096}};
}

/** The five systems compared in Figs. 11/12. */
inline const std::vector<std::string> &
comparedSystems()
{
    static const std::vector<std::string> systems = {
        "gpu", "gpu-2x", "duplex", "duplex-pe", "duplex-pe-et"};
    return systems;
}

/** The Fig. 11 models and batch sizes. */
inline const std::vector<ModelConfig> &
fig11Models()
{
    static const std::vector<ModelConfig> models = {
        mixtralConfig(), glamConfig(), grok1Config()};
    return models;
}

constexpr int kFig11Batches[] = {32, 64, 128};

/** The Fig. 12 sweep lengths (Lin = Lout) and batch/request sizes. */
constexpr std::int64_t kFig12Lengths[] = {512, 1024, 2048};
constexpr int kFig12Batch = 64;
constexpr int kFig12Requests = 160;
constexpr std::int64_t kFig12MaxStages = 8000;

/**
 * The full Fig. 11 throughput sweep, in table order (innermost:
 * comparedSystems()). Shared by the figure bench and bench_perf so
 * the tracked perf numbers always time the figure's workload.
 */
inline std::vector<SimConfig>
fig11SweepConfigs()
{
    std::vector<SimConfig> configs;
    for (const ModelConfig &model : fig11Models())
        for (int batch : kFig11Batches)
            for (const auto &[lin, lout] : lengthSweep(model))
                for (const std::string &system : comparedSystems())
                    configs.push_back(throughputConfig(
                        system, model, batch, lin, lout));
    return configs;
}

/** The full Fig. 12 GLaM latency sweep, in table order. */
inline std::vector<SimConfig>
fig12SweepConfigs()
{
    std::vector<SimConfig> configs;
    for (std::int64_t len : kFig12Lengths)
        for (const std::string &system : comparedSystems())
            configs.push_back(latencyConfig(
                system, glamConfig(), kFig12Batch, len, len,
                kFig12Requests, kFig12MaxStages));
    return configs;
}

/** Wall-clock seconds one call of @p run takes. */
template <typename Run>
double
timed(Run &&run)
{
    const auto t0 = std::chrono::steady_clock::now();
    run();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * User plus system CPU seconds this process has used so far, on all
 * its threads: over a timed span's wall time, the cores it kept busy
 * (draw helpers spin on one beside the caller).
 */
inline double
processCpuSec()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec +
                               usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
}

/**
 * One bench's perf numbers, in the one format the CI gate
 * (tools/check_perf.py) reads: dotted metric names in insertion
 * order, written as {"schema": 2, "metrics": {"fleet.wall_sec":
 * ..., ...}}. The gate joins several benches' reports, so a bench
 * prefixes its keys with its own section name.
 */
class PerfReport
{
  public:
    void add(std::string key, double value)
    {
        metrics_.emplace_back(std::move(key), value);
    }

    /** Append every metric of @p other, in its order. */
    void append(const PerfReport &other)
    {
        metrics_.insert(metrics_.end(), other.metrics_.begin(),
                        other.metrics_.end());
    }

    /** Write the report to @p path (%.17g: every value round-trips);
     *  false, said on stderr, if the file cannot be written. */
    bool write(const std::string &path) const
    {
        std::FILE *json = std::fopen(path.c_str(), "w");
        bool ok = json != nullptr;
        if (ok) {
            std::fprintf(json, "{\n  \"schema\": 2,\n  \"metrics\": {");
            for (std::size_t i = 0; i < metrics_.size(); ++i)
                std::fprintf(json, "%s\n    \"%s\": %.17g",
                             i ? "," : "", metrics_[i].first.c_str(),
                             metrics_[i].second);
            std::fprintf(json, "\n  }\n}\n");
            ok = std::fclose(json) == 0;
        }
        std::fprintf(stderr, ok ? "wrote %s\n" : "cannot write %s\n",
                     path.c_str());
        return ok;
    }

  private:
    std::vector<std::pair<std::string, double>> metrics_;
};

/**
 * The perf tail of the four sweep benches (fleet, faults, policies,
 * sessions): print the sweep's wall clock, requests/s and peak RSS
 * on stderr, never in the deterministic stdout, and, when
 * @p json_path is set, write them as "<section>.*" metrics followed
 * by the bench's own @p extra ones. Returns the bench's exit status.
 */
inline int
reportSweep(const std::string &section, std::size_t runs,
            std::int64_t retired, double wall_sec,
            const std::string &json_path,
            const PerfReport &extra = {})
{
    const double rss_mb = peakRssMb();
    const double req_per_sec =
        wall_sec > 0.0 ? static_cast<double>(retired) / wall_sec
                       : 0.0;
    std::fprintf(stderr,
                 "%s sweep: %zu run(s), %lld requests retired, "
                 "%.2f s wall, %.0f requests/s, peak RSS %.1f MB\n",
                 section.c_str(), runs,
                 static_cast<long long>(retired), wall_sec,
                 req_per_sec, rss_mb);
    if (json_path.empty())
        return 0;
    PerfReport report;
    report.add(section + ".runs", static_cast<double>(runs));
    report.add(section + ".requests_retired",
               static_cast<double>(retired));
    report.add(section + ".wall_sec", wall_sec);
    report.add(section + ".requests_per_sec", req_per_sec);
    report.add(section + ".peak_rss_mb", rss_mb);
    report.append(extra);
    return report.write(json_path) ? 0 : 1;
}

/** Add the five standard latency cells (see LatencySummary). */
inline void
latencyCells(Table &t, const ServingMetrics &m)
{
    const LatencySummary s = summarizeLatency(m);
    t.cell(s.tbtP50, 2);
    t.cell(s.tbtP90, 2);
    t.cell(s.tbtP99, 2);
    t.cell(s.t2ftP50, 1);
    t.cell(s.e2eP50, 1);
}

} // namespace duplex

#endif // DUPLEX_BENCH_BENCH_UTIL_HH
