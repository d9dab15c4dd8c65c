#include "sim/driver.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace duplex
{

namespace
{

/** The batcher limits a run derives from its config and system. */
BatcherConfig
batcherConfig(const SimConfig &config, ServingSystem &system)
{
    BatcherConfig bcfg;
    bcfg.maxBatch = config.maxBatch;
    bcfg.maxPrefillsPerStage = config.maxPrefillsPerStage;
    bcfg.maxKvTokens = system.maxKvTokens();
    // Aggregate-only stages unless the system stripes per-context
    // values (multi-node nodeShare): forming a stage is then
    // O(changes-to-the-batch), not O(batch).
    bcfg.exactStageView = system.needsExactStageView();
    bcfg.prefillChunkTokens = config.prefillChunkTokens;
    return bcfg;
}

/**
 * Stages excluded from the throughput window (batch ramp-up);
 * latency percentiles skip SimConfig::warmupRequests instead.
 */
constexpr std::int64_t kWarmupStages = 40;

} // namespace

DriverLoop::DriverLoop(const SimConfig &config,
                       ServingSystem &system, SimObserver &observer,
                       ArrivalQueue arrivals, PicoSec start)
    : config_(config), system_(system), observer_(observer),
      policy_(makeSchedulingPolicy(config.schedPolicy)),
      pool_(config.prefixCache.enabled()
                ? std::make_unique<PrefixCachePool>(
                      config.prefixCache,
                      static_cast<std::int64_t>(
                          config.model.kvBytesPerToken()))
                : nullptr),
      batcher_(batcherConfig(config, system), std::move(arrivals),
               *policy_, pool_.get()),
      // Retirement streaming: finished requests are drained every
      // stage, their latency samples extracted by the accumulator,
      // and the Request — tokenTimes vector included — dropped on
      // the spot.
      accumulator_(makeMetricsAccumulator(
          config.metricsMode,
          static_cast<std::size_t>(config.warmupRequests),
          config.boundedLatency)),
      now_(start), warmup_(kWarmupStages)
{
    maxKvTokens_ = system.maxKvTokens();
}

void
DriverLoop::step()
{
    panicIf(done(), "DriverLoop::step on a finished loop");
    const StageShape &stage = batcher_.formStage(now_);
    if (stage.totalTokens() == 0) {
        // Open loop and idle: idleAdvance (sched/arrivals.hh) jumps
        // exactly to the next arrival, with the one-picosecond bump
        // reserved for stalls where the clock would not otherwise
        // move (admission blocked by KV or batch limits with the
        // arrival already in the past) — the no-drift rule is
        // shared with every custom driver loop and pinned by
        // OpenLoopIdleAdvanceJumpsExactlyToArrival.
        const PicoSec arrival = batcher_.nextArrival();
        panicIf(arrival < 0, "idle batcher with no arrivals");
        now_ = idleAdvance(now_, arrival);
        // The batcher counted no stage; retry at the new time.
        return;
    }
    result_.peakBatch =
        std::max(result_.peakBatch,
                 static_cast<int>(stage.agg.numDecode +
                                  stage.agg.numPrefill));
    const PicoSec stage_start = now_;
    const StageResult sr = system_.executeStage(stage);
    // Degraded-straggler windows scale the stage's wall time; the
    // exact-1.0 guard keeps unfaulted loops bit-identical (PicoSec
    // values can exceed double's 2^53 exactness on long runs).
    PicoSec elapsed = sr.time;
    if (timeScale_ != 1.0)
        elapsed = std::max<PicoSec>(
            1, static_cast<PicoSec>(std::llround(
                   static_cast<double>(sr.time) * timeScale_)));
    now_ += elapsed;
    batcher_.completeStage(now_);
    result_.totals += sr;
    warmup_.onStageCompleted(now_, batcher_.totalGenerated());
    observer_.onStage({stages_, stage_start, now_, stage, sr,
                       stage.contextTokens()});
    ++stages_;
    batcher_.drainFinished(drained_);
    for (const Request &r : drained_) {
        observer_.onRequestRetired(r, now_);
        accumulator_.ingest(r);
        // Retirement feedback last: a session source releases the
        // next turn only once the previous one has been fully
        // accounted.
        batcher_.notifyRetired(r, now_);
    }
}

void
DriverLoop::advanceTo(PicoSec t)
{
    panicIf(!idle(), "DriverLoop::advanceTo with work pending");
    if (t > now_)
        now_ = idleAdvance(now_, t);
}

SimResult
DriverLoop::finish()
{
    panicIf(finished_, "DriverLoop::finish called twice");
    finished_ = true;
    result_.metrics = accumulator_.takeMetrics();
    if (accumulator_.bounded())
        result_.boundedLatency =
            std::make_shared<const BoundedLatencyMetrics>(
                accumulator_.takeBounded());
    result_.generatedTokens = batcher_.totalGenerated();
    result_.unfinishedRequests = static_cast<std::int64_t>(
        batcher_.pendingCount() + batcher_.activeCount());
    result_.stageCapped =
        stageCapped() && result_.unfinishedRequests > 0;
    result_.preemptions = batcher_.preemptions();
    result_.preemptedTokens = batcher_.preemptedTokens();
    warmup_.finalize(result_.metrics, now_,
                     batcher_.totalGenerated());
    result_.metrics.decodingOnlyStages =
        batcher_.decodingOnlyStages();
    result_.metrics.mixedStages = batcher_.mixedStages();
    if (pool_ != nullptr)
        result_.prefixCache = pool_->metrics();
    return std::move(result_);
}

} // namespace duplex
