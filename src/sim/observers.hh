/**
 * @file
 * Drop-in observers for the simulation engine: the metrics that
 * used to require a bespoke driver loop are now SimObserver
 * implementations attached with SimulationEngine::addObserver.
 *
 *  - StageTimeHistogram:  stage-latency distribution over the run.
 *  - KvOccupancyTrace:    KV-resident tokens over time (capacity
 *                         head-room studies, Fig. 5(c)).
 *  - ExpertRoutingCounts: per-expert token histogram over the run
 *                         (Section VIII-B skew studies).
 *  - GroupUtilization:    per-device-group busy/link-wait totals
 *                         for disaggregated systems (Fig. 16).
 *  - SloAttainment:       per-request TTFT/TBT SLO attainment and
 *                         goodput (tokens from attaining requests
 *                         only) — the metric bursty/diurnal
 *                         workloads are judged by.
 */

#ifndef DUPLEX_SIM_OBSERVERS_HH
#define DUPLEX_SIM_OBSERVERS_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"
#include "sim/engine.hh"

namespace duplex
{

/** Collects the distribution of per-stage execution times. */
class StageTimeHistogram : public SimObserver
{
  public:
    void onStage(const StageObservation &obs) override;

    /** Stage-time samples in milliseconds. */
    const SampleStats &stageMs() const { return stageMs_; }

  private:
    SampleStats stageMs_;
};

/** Records (time, KV tokens resident) per stage. */
class KvOccupancyTrace : public SimObserver
{
  public:
    struct Point
    {
        PicoSec time;
        std::int64_t kvTokens;
    };

    void onStage(const StageObservation &obs) override;

    const std::vector<Point> &points() const { return points_; }

    /** Largest KV-token residency seen in any stage. */
    std::int64_t peakKvTokens() const;

  private:
    std::vector<Point> points_;
};

/**
 * Accumulates the per-expert token histogram over a run from the
 * expertTokens slice each stage result carries (summed across the
 * stage's MoE layers). Empty for dense models.
 */
class ExpertRoutingCounts : public SimObserver
{
  public:
    void onStage(const StageObservation &obs) override;

    /** Tokens routed to each expert over the whole run. */
    const std::vector<std::int64_t> &tokensPerExpert() const
    {
        return tokensPerExpert_;
    }

    /** Total expert-token assignments (tokens x topK x MoE layers). */
    std::int64_t totalRouted() const;

    /**
     * Hottest / coldest expert load ratio: 1.0 when uniform (or
     * nothing was routed), infinity when some expert got nothing.
     */
    double skew() const;

  private:
    std::vector<std::int64_t> tokensPerExpert_;
};

/**
 * Per-device-group utilization over a run, fed by the
 * GroupObservation breakdown disaggregated systems attach to each
 * StageObservation. Homogeneous systems report no groups, so the
 * observer stays empty for them.
 */
class GroupUtilization : public SimObserver
{
  public:
    struct Group
    {
        std::string name;         //!< group id ("prefill", ...)
        int devices = 0;          //!< devices in the group
        PicoSec busyTime = 0;     //!< total compute time
        PicoSec linkWaitTime = 0; //!< total KV-transfer stalls
        std::int64_t stages = 0;  //!< stages the group executed
    };

    void onStage(const StageObservation &obs) override;
    void onSimEnd(const SimResult &result) override;

    /** Groups seen over the run, in first-seen order. */
    const std::vector<Group> &groups() const { return groups_; }

    /** Lookup by group id; nullptr when the group never ran. */
    const Group *find(std::string_view name) const;

    /** Fraction of the run's elapsed time the group computed. */
    double busyFraction(std::string_view name) const;

  private:
    std::vector<Group> groups_;
    PicoSec elapsed_ = 0;
};

/**
 * Per-request SLO attainment over a run. A request attains the
 * objective when its time-to-first-token meets slo.t2ftMs AND
 * every one of its token gaps meets slo.tbtMs; goodput counts only
 * the tokens of attaining requests, over the span from the first
 * retired request's arrival to the last retirement. This is the
 * per-request view the aggregate ServingMetrics attainment
 * fractions cannot express (a request is only as good as its worst
 * token gap), and the headline number for bursty/diurnal
 * workloads: raw throughput hides the requests a burst starved.
 */
class SloAttainment : public SimObserver
{
  public:
    /** Fatal unless both objectives are > 0 ms. */
    explicit SloAttainment(SloSpec slo = {});

    void onRequestRetired(const Request &request,
                          PicoSec now) override;

    const SloSpec &slo() const { return slo_; }

    /** Requests retired over the run. */
    std::int64_t totalRequests() const { return total_; }

    /** Requests meeting both objectives. */
    std::int64_t attainedRequests() const { return attained_; }

    /** Fraction of requests whose TTFT met the objective. */
    double t2ftAttainment() const;

    // --- warm/cold split (KV prefix cache, src/kvcache/) -------
    // A retirement is "warm" when admission served part of its
    // prompt from the prefix cache (request.cachedTokens > 0).
    // All-cold when the cache is disabled — the split then
    // reproduces the aggregate numbers exactly.

    /** Requests retired with a prefix-cache hit. */
    std::int64_t warmRequests() const { return warmTotal_; }

    /** Requests retired without one (every request, cache off). */
    std::int64_t coldRequests() const
    {
        return total_ - warmTotal_;
    }

    /** TTFT attainment over warm requests (1.0 when none). */
    double warmT2ftAttainment() const;

    /** TTFT attainment over cold requests (1.0 when none). */
    double coldT2ftAttainment() const;

    /** Fraction of requests whose every token gap met the SLO. */
    double tbtAttainment() const;

    /** Fraction of requests meeting both objectives. */
    double attainment() const;

    /** Tokens/s from attaining requests over the retire span. */
    double goodputTokensPerSec() const;

  private:
    SloSpec slo_;
    std::int64_t total_ = 0;
    std::int64_t t2ftOk_ = 0;
    std::int64_t tbtOk_ = 0;
    std::int64_t attained_ = 0;
    std::int64_t goodTokens_ = 0;
    std::int64_t warmTotal_ = 0;
    std::int64_t warmT2ftOk_ = 0;
    PicoSec spanStart_ = -1;
    PicoSec spanEnd_ = -1;
};

/**
 * Warm-vs-cold request split under a KV prefix cache
 * (src/kvcache/): a retirement is "warm" when admission served part
 * of its prompt from the cache (request.cachedTokens > 0), cold
 * otherwise. The headline comparison is the mean TTFT gap — a warm
 * turn prefills only the uncached suffix, so its first token should
 * land strictly earlier than a cold turn's at equal load. With the
 * cache disabled every request is cold and the observer reproduces
 * the plain TTFT mean.
 */
class PrefixCacheStats : public SimObserver
{
  public:
    void onRequestRetired(const Request &request,
                          PicoSec now) override;

    /** Requests retired with / without a prefix-cache hit. */
    std::int64_t warmRequests() const { return warm_; }
    std::int64_t coldRequests() const { return cold_; }

    /** Fraction of retirements that were warm (0 when none). */
    double warmFraction() const;

    /** Prompt tokens served from the cache, over all retirements. */
    std::int64_t cachedTokens() const { return cachedTokens_; }

    /** Mean TTFT over warm / cold retirements (0 when none). */
    double warmT2ftMs() const;
    double coldT2ftMs() const;

  private:
    std::int64_t warm_ = 0;
    std::int64_t cold_ = 0;
    std::int64_t cachedTokens_ = 0;
    double warmT2ftMsSum_ = 0.0;
    double coldT2ftMsSum_ = 0.0;
};

} // namespace duplex

#endif // DUPLEX_SIM_OBSERVERS_HH
