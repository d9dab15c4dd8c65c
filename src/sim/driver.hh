/**
 * @file
 * The continuous-batching driver loop as a steppable object.
 *
 * SimulationEngine::run used to own this loop outright; the fleet
 * layer (src/fleet/) needs to interleave many instances' loops over
 * one shared arrival stream, stepping whichever instance's clock is
 * furthest behind. DriverLoop is that extraction: one object holds
 * the batcher, the warm-up window, the metrics accumulator and the
 * clock of one instance's run, and exposes the loop body as step().
 * The engine's single-instance run is now literally
 * `while (!loop.done()) loop.step(); return loop.finish();`, so the
 * fleet's per-instance behavior cannot diverge from the engine's —
 * the FleetDriver golden-equivalence test pins a 1-instance fleet
 * to the bare engine bit-for-bit.
 *
 * Arrival feeding comes in two flavors: the engine constructs the
 * loop over the workload registry's shared stream (the PR-4
 * contract), while a fleet router constructs it over an empty
 * push-fed ArrivalQueue and delivers routed requests through
 * pushArrival() as their arrival times come due.
 */

#ifndef DUPLEX_SIM_DRIVER_HH
#define DUPLEX_SIM_DRIVER_HH

#include <memory>
#include <vector>

#include "sched/batcher.hh"
#include "sched/metrics.hh"
#include "sched/policy.hh"
#include "sim/engine.hh"

namespace duplex
{

/** One instance's continuous-batching run, steppable stage by
 *  stage. Construct, step() until done(), then finish() once. */
class DriverLoop
{
  public:
    /**
     * @param config    The run configuration (metrics mode, stage
     *                  and warm-up limits, batch caps).
     * @param system    The serving system executing stages; must
     *                  outlive the loop.
     * @param observer  Receives onStage/onRequestRetired callbacks;
     *                  must outlive the loop. begin/end hooks stay
     *                  with the caller (the engine and the fleet
     *                  driver fire their own).
     * @param arrivals  The request stream: the engine passes the
     *                  registry-built shared stream, a fleet router
     *                  passes ArrivalQueue(closed_loop) and feeds
     *                  pushArrival().
     * @param start     Clock origin; a fleet instance spun up
     *                  mid-run starts at its provisioning time.
     */
    DriverLoop(const SimConfig &config, ServingSystem &system,
               SimObserver &observer, ArrivalQueue arrivals,
               PicoSec start = 0);

    /** True when no request is pending or active in the batcher. */
    bool idle() const { return batcher_.allDone(); }

    /** True when the run's stage budget is exhausted. */
    bool stageCapped() const
    {
        return stages_ >= config_.maxStages;
    }

    /** Nothing left to step (batcher drained or stage-capped). */
    bool done() const { return idle() || stageCapped(); }

    /** The instance clock: end of the last executed stage. */
    PicoSec now() const { return now_; }

    /** Stages executed so far (empty forming attempts excluded). */
    std::int64_t stages() const { return stages_; }

    /**
     * One loop iteration: form a stage at the current clock and
     * execute it, or — when nothing is admissible — advance the
     * clock by the shared idleAdvance rule. Panics when done().
     */
    void step();

    /**
     * Advance an idle instance's clock toward @p t (idleAdvance
     * rule, never past an executable stage). The fleet driver uses
     * this to march an empty instance up to the next arrival it
     * might be routed; the engine never needs it (its batcher holds
     * the whole stream, so step() sees every arrival).
     */
    void advanceTo(PicoSec t);

    /** Collect the run's SimResult; call exactly once, when done. */
    SimResult finish();

    // ---- fleet-router hooks -----------------------------------

    /** Deliver one routed request (push-fed arrival queues only). */
    void pushArrival(Request r) { batcher_.pushArrival(std::move(r)); }

    /**
     * Fail-stop abort (the fleet crash path): move every queued and
     * active request into @p out (appending; queued first, then the
     * batch in admission order) and leave the loop idle at its
     * current clock. The evicted requests keep their lifecycle
     * state for lost-work accounting but produce no metric samples
     * and no onRequestRetired callbacks — they did not finish here.
     * Never call mid-stage (between formStage and completeStage;
     * impossible from outside, step() is atomic).
     */
    void evictAll(std::vector<Request> &out)
    {
        batcher_.evictAll(out);
    }

    /**
     * Proactive-drain eviction (the fleet drain path): move only
     * the QUEUED requests into @p out (arrival order) and leave the
     * active batch running. The migrated requests lost no work —
     * they were never admitted — so the router can re-route them
     * without retry accounting.
     */
    void evictQueued(std::vector<Request> &out)
    {
        batcher_.evictQueued(out);
    }

    /**
     * Crash-path cache invalidation: evict every entry of the
     * instance's KV prefix cache (ledger-closed — flushed bytes
     * count as evictions). The HBM behind the cache died with the
     * instance, so post-rejoin lookups must all miss. No-op when
     * the cache is disabled.
     */
    void flushPrefixCache()
    {
        if (pool_ != nullptr)
            pool_->flush();
    }

    /**
     * Stage-time multiplier (degraded-straggler windows): stages
     * executed while the scale is not exactly 1.0 take
     * llround(time * scale) instead. The 1.0 path is bit-identical
     * to a loop that never heard of scaling — the no-fault golden
     * contract.
     */
    void setTimeScale(double scale)
    {
        panicIf(scale <= 0.0, "DriverLoop: time scale must be > 0");
        timeScale_ = scale;
    }

    double timeScale() const { return timeScale_; }

    /** Requests routed but not yet admitted into the batch. */
    std::size_t queueDepth() const { return batcher_.pendingCount(); }

    /** Requests currently being served. */
    std::size_t activeCount() const { return batcher_.activeCount(); }

    /**
     * Live full-lifetime KV commitment of the active batch — the
     * PR-5 incremental sum the least-loaded routing policy reads.
     */
    std::int64_t activeLifetimeKv() const
    {
        return batcher_.activeLifetimeKv();
    }

    /** KV capacity of the instance's serving system. */
    std::int64_t maxKvTokens() const { return maxKvTokens_; }

  private:
    SimConfig config_;
    ServingSystem &system_;
    SimObserver &observer_;

    /**
     * The scheduling policy config_.schedPolicy names, built from
     * the SchedulingPolicyRegistry. Declared before batcher_ — the
     * batcher borrows it.
     */
    std::unique_ptr<SchedulingPolicy> policy_;

    /**
     * The KV prefix cache config_.prefixCache describes; null when
     * the cache is disabled (the default — the batcher then runs
     * its cache-less path bit-for-bit). Declared before batcher_ —
     * the batcher borrows the raw pointer. Per-loop, so every fleet
     * instance gets its own pool (cache locality is exactly what
     * session-affinity routing buys).
     */
    std::unique_ptr<PrefixCachePool> pool_;

    ContinuousBatcher batcher_;
    MetricsAccumulator accumulator_;
    std::vector<Request> drained_;
    SimResult result_;
    PicoSec now_;
    WarmupWindow warmup_;
    std::int64_t stages_ = 0;
    std::int64_t maxKvTokens_ = 0;
    double timeScale_ = 1.0;
    bool finished_ = false;
};

} // namespace duplex

#endif // DUPLEX_SIM_DRIVER_HH
