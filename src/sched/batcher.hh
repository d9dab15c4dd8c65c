/**
 * @file
 * Continuous batching scheduler (ORCA-style, Section II-C).
 *
 * Inference is batched at the stage level: every iteration runs one
 * stage over all admitted requests — decode sequences generate one
 * token each, newly admitted requests run their prefill in the same
 * stage (making it a "mixed" stage). When no request is waiting, the
 * stage is "decoding-only". Admission respects both the configured
 * batch size and the KV-cache capacity of the serving system.
 */

#ifndef DUPLEX_SCHED_BATCHER_HH
#define DUPLEX_SCHED_BATCHER_HH

#include <deque>
#include <limits>
#include <vector>

#include "kvcache/prefix_cache.hh"
#include "model/layers.hh"
#include "sched/arrivals.hh"
#include "sched/policy.hh"
#include "workload/generator.hh"
#include "workload/request.hh"

namespace duplex
{

/** Admission limits for the batcher. */
struct BatcherConfig
{
    int maxBatch = 32;

    /**
     * Prefills admitted into one stage. Serving systems chunk
     * admissions so one stage never becomes a prompt avalanche;
     * this also bounds mixed-stage latency spikes.
     */
    int maxPrefillsPerStage = 4;

    /** KV tokens the system can hold; admission stops beyond it. */
    std::int64_t maxKvTokens =
        std::numeric_limits<std::int64_t>::max();

    /**
     * Opt-in exact stage view: fill StageShape.decodeContexts with
     * the per-sequence context lengths each stage (an O(batch)
     * walk). The default publishes only the O(1) StageAggregates —
     * sufficient for every single-node cost path. Systems whose
     * executeStage truly consumes per-context values (multi-node
     * nodeShare striping) request the walk via
     * ServingSystem::needsExactStageView.
     */
    bool exactStageView = false;

    /**
     * Chunked prefill: process at most this many prompt tokens of
     * one request per stage, spreading a long prefill across
     * stages so in-flight decodes keep taking turns — the
     * worst-token-gap metric this bounds is exactly what the SLO
     * attainment observers judge. A request produces its first
     * token only in the stage that finishes its prompt. 0 (the
     * default) runs whole prompts in one stage.
     */
    std::int64_t prefillChunkTokens = 0;
};

/** Stage-level scheduler over a generated request stream. */
class ContinuousBatcher
{
  public:
    /**
     * @param config    Admission limits.
     * @param arrivals  The request stream and its closed/open-loop
     *                  discipline; build it with
     *                  ArrivalQueue(workload, numRequests) so every
     *                  driver loop sees the identical contract.
     * @param policy    The scheduling policy admission runs
     *                  (sched/policy.hh; borrowed, must outlive the
     *                  batcher) — "fcfs" for the paper's rule.
     * @param pool      Optional KV prefix cache (src/kvcache/;
     *                  borrowed, must outlive the batcher). nullptr
     *                  — or a disabled pool — leaves every
     *                  admission bit-identical to the cache-less
     *                  batcher. With an enabled pool, admission
     *                  probes it (a hit jumps `prefilled` to the
     *                  cached length so only the suffix runs),
     *                  retirement installs the session's context,
     *                  and the pool's residentTokens() shrink the
     *                  KV admission headroom. Live work wins:
     *                  with a batch slot free the cache is
     *                  reclaimed before the fit check; on a full
     *                  batch, only once the policy names decode
     *                  victims.
     */
    ContinuousBatcher(const BatcherConfig &config,
                      ArrivalQueue arrivals,
                      SchedulingPolicy &policy,
                      PrefixCachePool *pool = nullptr);

    /** True when every request has finished. */
    bool allDone() const;

    /** Requests still unadmitted (queued plus undrawn). */
    std::size_t pendingCount() const
    {
        return arrivals_.size() + ready_.size();
    }

    /**
     * Deliver one routed request into the arrival queue (push-fed
     * queues only — see ArrivalQueue::push). The fleet driver feeds
     * instances through this as routing decisions come due.
     */
    void pushArrival(Request r) { arrivals_.push(std::move(r)); }

    /**
     * Live sum over the active batch of (inputLen + outputLen) —
     * each request's full-lifetime KV commitment, incrementally
     * maintained (admission adds, retirement subtracts). The
     * least-loaded routing policy reads this as KV headroom.
     */
    std::int64_t activeLifetimeKv() const
    {
        return activeLifetimeKv_;
    }

    /** Requests currently being served. */
    std::size_t activeCount() const { return active_.size(); }

    /**
     * Form the next stage at time @p now: admit what fits, return
     * the stage composition. Returns an empty stage if nothing can
     * run (open loop, before the next arrival).
     */
    StageShape formStage(PicoSec now);

    /**
     * Earliest arrival among pending requests (open loop); used to
     * advance the clock across idle gaps. -1 when none pending.
     */
    PicoSec nextArrival() const;

    /**
     * Account for the stage formed by the last formStage() call
     * finishing at @p now: prefills produce their first token,
     * decodes one more; finished requests retire.
     */
    void completeStage(PicoSec now);

    /**
     * Retired requests with full lifecycle timestamps — the
     * retained view. Grows for the whole run unless the caller
     * drains it; streaming driver loops use drainFinished()
     * instead so memory stays flat in the request count.
     */
    const std::vector<Request> &finished() const { return finished_; }

    /**
     * Move the requests retired since the last drain into @p out
     * (clearing it first) and reset the internal finished buffer.
     * The two buffers swap storage, so a drain-per-stage loop is
     * allocation-free at steady state. Retirement order — the
     * observer-contract order — is preserved. Mixing drainFinished
     * with end-of-run finished() walks sees only the undrained
     * tail.
     */
    void drainFinished(std::vector<Request> &out);

    /**
     * Fail-stop eviction (the fleet crash path, mirroring
     * drainFinished): append every queued and active request to
     * @p out — queued first in arrival order, then the active batch
     * in admission order — and zero the KV/aggregate accounting.
     * The evicted requests keep their lifecycle state so the caller
     * can account lost work; their KV is conceptually gone, so a
     * re-submission must restart from prefill. Push-fed and vector
     * arrival queues only; never call with a stage in flight.
     */
    void evictAll(std::vector<Request> &out);

    /**
     * Proactive-drain eviction (the fleet drain path): append every
     * QUEUED request to @p out in arrival order and leave the
     * active batch — and its KV/aggregate accounting — untouched.
     * Unlike evictAll, no work is lost: the migrated requests never
     * started, so re-routing them elsewhere costs nothing. Push-fed
     * and vector arrival queues only; never call with a stage in
     * flight.
     */
    void evictQueued(std::vector<Request> &out);

    /** Tokens generated so far across all requests. */
    std::int64_t totalGenerated() const { return totalGenerated_; }

    /** Stage counts by type (Fig. 5(a)). */
    std::int64_t decodingOnlyStages() const { return decodeOnly_; }
    std::int64_t mixedStages() const { return mixed_; }

    /**
     * Admissions into the batch over the run, re-admissions of
     * preempted requests included. With preemptions() this pins
     * the accounting invariant a drained run must satisfy:
     * admissions == retirements + preemptions (every admission
     * either finishes or is evicted and admitted again).
     */
    std::int64_t admissions() const { return admissions_; }

    /** Decode preemptions a scheduling policy performed. */
    std::int64_t preemptions() const { return preempted_; }

    /**
     * A driver loop retired @p r at @p now — forwarded to the
     * arrival queue so retirement-gated workload sources
     * (SessionSource) can release the next turn. Call after the
     * observers have seen the retirement.
     */
    void notifyRetired(const Request &r, PicoSec now)
    {
        arrivals_.notifyRetired(r, now);
    }

    /** Generated tokens discarded by those preemptions (victims
     *  restart from prefill; their decoded work is lost). */
    std::int64_t preemptedTokens() const
    {
        return preemptedTokens_;
    }

    /**
     * Incrementally maintained aggregates of the active decode set
     * (as of the next formStage); formStage publishes them plus the
     * admitted prefills in StageShape.agg, so stage costing never
     * re-walks the batch.
     */
    const StageAggregates &activeDecodeAggregates() const
    {
        return decodeAgg_;
    }

  private:
    BatcherConfig config_;
    ArrivalQueue arrivals_; //!< shared closed/open-loop gating

    SchedulingPolicy &policy_; //!< borrowed

    /** Borrowed KV prefix cache; nullptr/disabled = no cache. */
    PrefixCachePool *pool_ = nullptr;

    /**
     * Arrived-but-unadmitted requests the policy reorders over:
     * open-loop arrivals are drained here once due (closed loop
     * draws stay queued — ArrivalQueue::pop stamps their arrival
     * at admission, so materializing early would fork the
     * timestamps), and preempted victims re-queue here.
     */
    std::deque<Request> ready_;

    std::vector<Request> active_;
    bool stageOpen_ = false;
    std::vector<Request> finished_;
    std::vector<Request> stillActiveScratch_; //!< completeStage reuse
    std::vector<std::size_t> victimScratch_;
    StageAggregates decodeAgg_; //!< active decode sequences

    /**
     * Incrementally maintained sum over active_ of
     * (inputLen + outputLen) — each request's full-lifetime KV
     * budget: admission adds it, retirement subtracts it, so
     * formStage's KV headroom check is O(1).
     */
    std::int64_t activeLifetimeKv_ = 0;

    std::int64_t totalGenerated_ = 0;
    std::int64_t decodeOnly_ = 0;
    std::int64_t mixed_ = 0;
    std::int64_t admissions_ = 0;
    std::int64_t preempted_ = 0;
    std::int64_t preemptedTokens_ = 0;

    /** Prompt tokens request @p r runs in its next stage. */
    std::int64_t prefillSpan(const Request &r) const;

    /** KV tokens admissible right now: capacity minus cache residency. */
    std::int64_t kvCapacity() const;

    /** Probe the prefix cache for a just-popped admission. */
    void applyPrefixCache(Request &r);

    /** formStage's admission loop, driven by policy_. */
    void admit(PicoSec now, StageShape &stage);

    /** Evict one active decode back into ready_ (preemption). */
    void preemptActive(std::size_t index);

    SchedSnapshot snapshot(PicoSec now,
                           const StageShape &stage) const;
};

} // namespace duplex

#endif // DUPLEX_SCHED_BATCHER_HH
