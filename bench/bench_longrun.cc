/**
 * @file
 * Long-run driver-loop gate: a million-request open-loop campaign
 * that measures what the figures never stress — the scheduling
 * loop's own throughput (requests/s of wall-clock), the CPU seconds
 * it takes per wall second, and its memory footprint (peak RSS) at
 * Mixtral scale.
 *
 * The run uses MetricsMode::Bounded by default: retired requests
 * are drained and dropped every stage and latency lands in
 * fixed-bin histograms, so peak RSS stays flat in the request
 * count. --metrics=streaming keeps exact latency samples instead
 * (RSS then grows with the token count).
 *
 * Output discipline: everything deterministic (request/token
 * counts, simulated time, approximate percentiles) goes to stdout
 * — the CI determinism job diffs two runs byte-for-byte. Timing
 * and RSS go to stderr and, with --json=PATH, into a perf report
 * (bench_util.hh PerfReport) the CI perf gate reads
 * (driver_loop.requests_per_sec floor, driver_loop.peak_rss_mb
 * ceiling; see tools/check_perf.py).
 *
 *   ./bench_longrun                        # the 1M-request gate
 *   ./bench_longrun --requests=50000       # determinism-job size
 *   ./bench_longrun --metrics=streaming    # exact percentiles
 *   ./bench_longrun --json=BENCH_longrun.json
 */

#include <cstdio>
#include <limits>
#include <string>

#include "bench_util.hh"
#include "common/argparse.hh"

using namespace duplex;

namespace
{

/** Counts stages and retirements without retaining anything. */
class DriverCounters : public SimObserver
{
  public:
    std::int64_t stages = 0;
    std::int64_t retired = 0;

    void onStage(const StageObservation &obs) override
    {
        (void)obs;
        ++stages;
    }

    void onRequestRetired(const Request &request,
                          PicoSec now) override
    {
        (void)request;
        (void)now;
        ++retired;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addFlag("requests", "requests to stream", "1000000");
    args.addFlag("system", "registered system id", "gpu");
    args.addFlag("batch", "stage-level batch size", "256");
    args.addFlag("lin", "mean prompt length", "256");
    args.addFlag("lout", "mean generation length", "64");
    args.addFlag("qps",
                 "open-loop arrival rate (default sits just under "
                 "the gpu system's ~250 req/s service rate so the "
                 "queue stays stationary over a million requests)",
                 "200");
    args.addFlag("metrics",
                 "bounded | streaming (see "
                 "sched/metrics.hh; bounded keeps RSS flat)",
                 "bounded");
    args.addFlag("json",
                 "write driver_loop perf metrics to this file",
                 "");
    args.parse(argc, argv);

    const int requests = static_cast<int>(args.getInt("requests"));
    const std::string metrics_mode = args.getString("metrics");

    SimConfig c;
    c.systemName = args.getString("system");
    c.model = mixtralConfig();
    c.maxBatch = static_cast<int>(args.getInt("batch"));
    c.workload.meanInputLen = args.getInt("lin");
    c.workload.meanOutputLen = args.getInt("lout");
    c.workload.qps = args.getDouble("qps");
    c.numRequests = requests;
    c.warmupRequests = defaultWarmupRequests(c.maxBatch);
    // Never the stage cap that ends the run: every request must
    // retire for the requests/s number to mean anything.
    c.maxStages = std::numeric_limits<std::int64_t>::max();
    if (metrics_mode == "bounded") {
        c.metricsMode = MetricsMode::Bounded;
        // One-millisecond bins over a minute: tight enough for
        // decode-cadence TBT, wide enough for queueing-inflated
        // T2FT/E2E under a stationary queue. ~0.5 MB per
        // histogram — O(1) in the request count.
        c.boundedLatency = {60000.0, 60000};
    } else if (metrics_mode == "streaming") {
        c.metricsMode = MetricsMode::Streaming;
    } else {
        std::fprintf(stderr, "unknown --metrics=%s\n",
                     metrics_mode.c_str());
        return 1;
    }

    std::printf("=== Long-run driver gate: %d requests, open loop "
                "(qps %.0f), %s metrics ===\n",
                requests, c.workload.qps, metrics_mode.c_str());
    std::printf("system %s, batch %d, Lin %lld, Lout %lld\n",
                c.systemName.c_str(), c.maxBatch,
                static_cast<long long>(c.workload.meanInputLen),
                static_cast<long long>(c.workload.meanOutputLen));

    SimulationEngine engine(c);
    DriverCounters counters;
    engine.addObserver(&counters);

    SimResult r;
    const double cpu0 = processCpuSec();
    const double wall_sec = timed([&] { r = engine.run(); });
    const double cpu_sec = processCpuSec() - cpu0;

    // ---- deterministic summary (stdout, diffed by CI) ----------
    std::printf("requests retired: %lld, tokens: %lld, stages: "
                "%lld, peak batch %d\n",
                static_cast<long long>(counters.retired),
                static_cast<long long>(r.generatedTokens),
                static_cast<long long>(counters.stages),
                r.peakBatch);
    std::printf("simulated: %.3f s, %.0f tokens/s (post-warm-up "
                "window)\n",
                psToSec(r.metrics.elapsed),
                r.metrics.throughputTokensPerSec());
    if (r.boundedLatency != nullptr) {
        const BoundedLatencyMetrics &h = *r.boundedLatency;
        std::printf("TBT p50/p99 ~ %.2f / %.2f ms, T2FT p50 ~ "
                    "%.1f ms, E2E p50 ~ %.1f ms, worst-gap p99 ~ "
                    "%.2f ms (fixed-bin approx)\n",
                    h.tbtMs.percentile(50), h.tbtMs.percentile(99),
                    h.t2ftMs.percentile(50),
                    h.e2eMs.percentile(50),
                    h.worstGapMs.percentile(99));
    } else {
        std::printf("TBT p50/p99 = %.3f / %.3f ms, T2FT p50 = "
                    "%.1f ms, E2E p50 = %.1f ms (exact)\n",
                    r.metrics.tbtMs.percentile(50),
                    r.metrics.tbtMs.percentile(99),
                    r.metrics.t2ftMs.percentile(50),
                    r.metrics.e2eMs.percentile(50));
    }

    // ---- perf numbers (stderr + JSON; never in the diffed out) -
    const double rss_mb = peakRssMb();
    const double req_per_sec =
        wall_sec > 0.0 ? counters.retired / wall_sec : 0.0;
    const double stages_per_sec =
        wall_sec > 0.0 ? counters.stages / wall_sec : 0.0;
    const double cpu_per_wall = wall_sec > 0.0 ? cpu_sec / wall_sec : 0.0;
    std::fprintf(stderr,
                 "driver loop: %.2f s wall, %.2f CPU s per wall s, %.0f "
                 "requests/s, %.0f stages/s, peak RSS %.1f MB\n",
                 wall_sec, cpu_per_wall, req_per_sec, stages_per_sec,
                 rss_mb);

    const std::string json_path = args.getString("json");
    if (json_path.empty())
        return 0;
    PerfReport report;
    report.add("driver_loop.requests", requests);
    report.add("driver_loop.wall_sec", wall_sec);
    report.add("driver_loop.requests_per_sec", req_per_sec);
    report.add("driver_loop.stages_per_sec", stages_per_sec);
    report.add("driver_loop.peak_rss_mb", rss_mb);
    report.add("driver_loop.cpu_per_wall", cpu_per_wall);
    return report.write(json_path) ? 0 : 1;
}
