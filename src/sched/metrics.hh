/**
 * @file
 * Serving metrics: the quantities the paper's figures report.
 *
 *  - TBT  (token-between-token): gap between consecutive token
 *    completions of one request; p50/p90/p99 in Figs. 12/13.
 *  - T2FT (time-to-first-token): arrival to first token.
 *  - E2E  : arrival to last token.
 *  - Throughput: generated tokens per second (Figs. 11/14).
 *  - SLO attainment: fraction of T2FT / TBT observations under a
 *    latency objective (SloSpec); the per-request view — and
 *    goodput, tokens from SLO-attaining requests only — comes from
 *    the SloAttainment observer (sim/observers.hh).
 */

#ifndef DUPLEX_SCHED_METRICS_HH
#define DUPLEX_SCHED_METRICS_HH

#include <algorithm>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "workload/request.hh"

namespace duplex
{

/**
 * A latency service-level objective: the time-to-first-token a
 * user will wait and the steady token cadence they expect. The
 * defaults are interactive-chat-shaped; sweeps override them.
 */
struct SloSpec
{
    double t2ftMs = 1500.0; //!< time to first token (TTFT)
    double tbtMs = 40.0;    //!< gap between consecutive tokens
};

/** Aggregated serving metrics over a run. */
struct ServingMetrics
{
    SampleStats tbtMs;
    SampleStats t2ftMs;
    SampleStats e2eMs;
    std::int64_t totalTokens = 0;
    PicoSec elapsed = 0;
    std::int64_t decodingOnlyStages = 0;
    std::int64_t mixedStages = 0;

    /** Tokens per second over the whole run. */
    double throughputTokensPerSec() const
    {
        const double sec = psToSec(elapsed);
        return sec > 0.0 ? static_cast<double>(totalTokens) / sec
                         : 0.0;
    }

    /** Fraction of T2FT observations meeting the objective. */
    double t2ftAttainment(const SloSpec &slo) const
    {
        return t2ftMs.fractionAtMost(slo.t2ftMs);
    }

    /** Fraction of token gaps meeting the objective. */
    double tbtAttainment(const SloSpec &slo) const
    {
        return tbtMs.fractionAtMost(slo.tbtMs);
    }

    /** Fraction of stages that were decoding-only (Fig. 5(a)). */
    double decodingOnlyRatio() const
    {
        const double total = static_cast<double>(
            decodingOnlyStages + mixedStages);
        return total > 0.0
                   ? static_cast<double>(decodingOnlyStages) / total
                   : 0.0;
    }
};

/**
 * How a driver loop keeps latency metrics over a run. Either way
 * retired requests are drained from the scheduler each stage, fed
 * to a MetricsAccumulator and dropped:
 *
 *  - Streaming (default): the accumulator keeps exact SampleStats,
 *    bit-identical to collectMetrics over the same retirements —
 *    the golden path. Only the extracted latency samples are kept
 *    (doubles, O(tokens) over the run), not the Request objects;
 *    for truly flat memory use Bounded.
 *  - Bounded: fixed-bin BoundedStats histograms — truly O(1)
 *    memory in the request count, but latency percentiles are
 *    approximate (NOT the golden path). The run's SimResult
 *    carries the histograms in boundedLatency; its ServingMetrics
 *    latency SampleStats stay empty.
 */
enum class MetricsMode
{
    Streaming,
    Bounded,
};

/** The O(1)-memory latency view a Bounded-mode run produces. */
struct BoundedLatencyMetrics
{
    BoundedStats tbtMs;
    BoundedStats t2ftMs;
    BoundedStats e2eMs;
    BoundedStats worstGapMs; //!< worst token gap per request

    explicit BoundedLatencyMetrics(const BoundedSpec &spec = {})
        : tbtMs(spec), t2ftMs(spec), e2eMs(spec), worstGapMs(spec)
    {
    }
};

/**
 * The token-gap rule, in one copy: call @p visit with each gap
 * between consecutive tokenTimes of a retired @p request, in ms and
 * in order, and return the worst gap (-1 when there is none).
 */
template <typename Visit>
double
visitTokenGapsMs(const Request &request, Visit &&visit)
{
    double worst = -1.0;
    for (std::size_t t = 1; t < request.tokenTimes.size(); ++t) {
        const double gap = psToMs(request.tokenTimes[t] -
                                  request.tokenTimes[t - 1]);
        visit(gap);
        worst = std::max(worst, gap);
    }
    return worst;
}

/**
 * Streams retired requests into latency metrics so the driver loop
 * never retains a finished Request: ingest() extracts the
 * TTFT/E2E/worst-gap/TBT samples and the caller drops the request.
 *
 * The first @p skip_requests ingested (warm-up, by completion
 * order) contribute nothing. In the default exact mode the samples
 * land in SampleStats in retirement order, so a run's streamed
 * metrics are bit-identical to collectMetrics over the requests an
 * observer saw retire (pinned in tests/sim/test_streaming_metrics.cc).
 * In bounded mode ([skip, BoundedSpec] constructor) samples land in
 * fixed-bin histograms instead and memory stays O(bins).
 */
class MetricsAccumulator
{
  public:
    /** Exact mode: SampleStats. */
    explicit MetricsAccumulator(std::size_t skip_requests = 0)
        : skip_(skip_requests)
    {
    }

    /** Bounded mode: fixed-bin histograms, O(1) memory. */
    MetricsAccumulator(std::size_t skip_requests,
                       const BoundedSpec &spec)
        : skip_(skip_requests), bounded_(spec)
    {
    }

    /** Consume one retired request; the caller may drop it after. */
    void ingest(const Request &request);

    /** Requests ingested so far (including skipped warm-up). */
    std::size_t ingested() const { return ingested_; }

    bool bounded() const { return bounded_.has_value(); }

    /**
     * Move the accumulated metrics out (latency samples, exact
     * mode; empty SampleStats in bounded mode). Throughput-window
     * fields (totalTokens, elapsed, stage counts) are the driver
     * loop's to fill.
     */
    ServingMetrics takeMetrics() { return std::move(metrics_); }

    /**
     * Worst token gap per request (exact mode samples; one per
     * multi-token request, so it retains an order of magnitude
     * fewer samples than the per-gap tbtMs beside it).
     */
    const SampleStats &worstGapMs() const { return worstGap_; }

    /** Move the bounded histograms out (bounded mode only). */
    BoundedLatencyMetrics takeBounded();

  private:
    std::size_t skip_ = 0;
    std::size_t ingested_ = 0;
    ServingMetrics metrics_;
    SampleStats worstGap_;
    std::optional<BoundedLatencyMetrics> bounded_;
};

/**
 * The accumulator a driver loop needs for @p mode: bounded
 * histograms for MetricsMode::Bounded, exact SampleStats otherwise.
 * One place, so the engine and custom loops cannot diverge on
 * warm-up-skip or histogram wiring.
 */
inline MetricsAccumulator
makeMetricsAccumulator(MetricsMode mode, std::size_t skip_requests,
                       const BoundedSpec &spec)
{
    return mode == MetricsMode::Bounded
               ? MetricsAccumulator(skip_requests, spec)
               : MetricsAccumulator(skip_requests);
}

/**
 * Collect latency metrics from finished requests, skipping the first
 * @p skip_requests (warm-up) by completion order: the whole-run
 * reference the streaming accumulator is tested against, over the
 * requests an observer captures from onRequestRetired.
 */
ServingMetrics collectMetrics(const std::vector<Request> &finished,
                              std::size_t skip_requests = 0);

/**
 * Warm-up-window bookkeeping shared by the simulation drivers:
 * throughput is reported over the post-warm-up window only (the
 * batch ramp-up distorts it), falling back to the whole run when it
 * ends before the window closes. Latency percentiles use
 * warm-up-request skipping (MetricsAccumulator) instead.
 */
class WarmupWindow
{
  public:
    explicit WarmupWindow(std::int64_t warmup_stages)
        : warmupStages_(warmup_stages)
    {
    }

    /** Record one completed stage at time @p now. */
    void onStageCompleted(PicoSec now,
                          std::int64_t generated_tokens);

    /** Completed stages so far. */
    std::int64_t stages() const { return stages_; }

    /** Fill @p m's throughput window from the run's end state. */
    void finalize(ServingMetrics &m, PicoSec now,
                  std::int64_t total_tokens) const;

  private:
    std::int64_t warmupStages_;
    std::int64_t stages_ = 0;
    PicoSec windowStart_ = 0;
    std::int64_t tokensAtStart_ = 0;
};

/**
 * Warm-up requests to exclude from latency percentiles for a given
 * stage-level batch limit (the benches' shared rule of thumb).
 */
inline int
defaultWarmupRequests(int max_batch)
{
    return max_batch / 2;
}

/** The latency percentiles the paper's figures report. */
struct LatencySummary
{
    double tbtP50 = 0.0;
    double tbtP90 = 0.0;
    double tbtP99 = 0.0;
    double t2ftP50 = 0.0;
    double e2eP50 = 0.0;
};

/** Pull the standard figure percentiles out of @p m. */
LatencySummary summarizeLatency(const ServingMetrics &m);

} // namespace duplex

#endif // DUPLEX_SCHED_METRICS_HH
