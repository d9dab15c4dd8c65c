/**
 * @file
 * Experiment configuration shared by the engine and fleet drivers.
 */

#ifndef DUPLEX_SIM_EXPERIMENT_HH
#define DUPLEX_SIM_EXPERIMENT_HH

#include <memory>
#include <string>

#include "cluster/cluster.hh"
#include "kvcache/prefix_cache.hh"
#include "sched/metrics.hh"
#include "sim/presets.hh"
#include "workload/source.hh"

namespace duplex
{

/** One end-to-end simulation. */
struct SimConfig
{
    /**
     * Registry id of the serving system to build ("gpu",
     * "duplex-pe-et", ... — see sim/registry.hh).
     */
    std::string systemName = "gpu";

    ModelConfig model;

    /**
     * Registry id of the workload to stream ("synthetic", "trace",
     * "bursty", ... — see workload/registry.hh). Empty runs the
     * default "synthetic" source, which is bit-identical to the
     * pre-registry RequestGenerator stream.
     */
    std::string workloadName;

    /**
     * The workload parameters. Its WorkloadConfig base is the old
     * synthetic spec (mean lengths, CV, qps, seed), so existing
     * `workload.meanInputLen = ...` call sites are untouched; the
     * extra fields parameterize trace/bursty/diurnal sources.
     */
    WorkloadSpec workload;

    /** The workload id the driver loops should build. */
    const std::string &workloadIdOrDefault() const
    {
        static const std::string kDefault = "synthetic";
        return workloadName.empty() ? kDefault : workloadName;
    }

    /** Stage-level batch limit. */
    int maxBatch = 32;

    /** Requests injected over the run. */
    int numRequests = 128;

    /** Finished requests excluded from latency percentiles. */
    int warmupRequests = 16;

    /** Stage cap; throughput sweeps cut off here. */
    std::int64_t maxStages = 100000;

    /**
     * Stages excluded from the throughput window (batch ramp-up);
     * latency percentiles use warmupRequests instead.
     */
    std::int64_t warmupStages = 40;

    /** Prefills admitted per stage (see BatcherConfig). */
    int maxPrefillsPerStage = 4;

    /**
     * Registry id of the batcher scheduling policy ("fcfs",
     * "ttft-protect", "priority", ... — see sched/policy.hh).
     * Continuous-batching driver loops only; the split system's
     * custom loop ignores it.
     */
    std::string schedPolicy = "fcfs";

    /**
     * Chunked prefill: max prompt tokens one request runs per
     * stage (see BatcherConfig.prefillChunkTokens); 0 = whole
     * prompt in one stage (the pre-chunking behavior).
     */
    std::int64_t prefillChunkTokens = 0;

    /**
     * How the driver loop retains latency metrics (see
     * sched/metrics.hh). Streaming (default) drains retired
     * requests each stage — bit-identical results at flat memory;
     * Retained is the legacy keep-every-request reference path;
     * Bounded streams into fixed-bin histograms (boundedLatency
     * below) for O(1)-memory campaigns, with approximate
     * percentiles.
     */
    MetricsMode metricsMode = MetricsMode::Streaming;

    /** Histogram shape for MetricsMode::Bounded runs. */
    BoundedSpec boundedLatency;

    /**
     * KV prefix cache (src/kvcache/): disabled by default, in which
     * case no pool is built and every run is bit-identical to the
     * cache-less simulator. Continuous-batching driver loops only;
     * the split system's custom loop ignores it.
     */
    PrefixCacheSpec prefixCache;

    std::uint64_t seed = 7;
};

/** Outcome of one simulation. */
struct SimResult
{
    ServingMetrics metrics; //!< throughput over the measured window
    StageResult totals;     //!< full-run time/energy breakdown

    /**
     * Fixed-bin latency histograms, set only by
     * MetricsMode::Bounded runs (metrics' latency SampleStats stay
     * empty there). Shared so SimResult stays cheap to copy.
     */
    std::shared_ptr<const BoundedLatencyMetrics> boundedLatency;

    /** Tokens generated over the whole run (incl. warm-up). */
    std::int64_t generatedTokens = 0;

    /** Joules per generated token (full run). */
    double energyPerTokenJ() const
    {
        return generatedTokens > 0
                   ? totals.totalEnergyJ() /
                         static_cast<double>(generatedTokens)
                   : 0.0;
    }

    /** Largest batch observed in any stage. */
    int peakBatch = 0;

    /**
     * Decode preemptions the scheduling policy performed, and the
     * generated tokens those evictions discarded (victims restart
     * from prefill). Zero for non-preempting policies.
     */
    std::int64_t preemptions = 0;
    std::int64_t preemptedTokens = 0;

    /**
     * KV prefix-cache counters (src/kvcache/); all-zero when the
     * cache was disabled for the run.
     */
    PrefixCacheMetrics prefixCache;
};

} // namespace duplex

#endif // DUPLEX_SIM_EXPERIMENT_HH
