#include "sched/batcher.hh"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/log.hh"

namespace duplex
{

ContinuousBatcher::ContinuousBatcher(const BatcherConfig &config,
                                     ArrivalQueue arrivals,
                                     SchedulingPolicy &policy,
                                     PrefixCachePool *pool)
    : config_(config), arrivals_(std::move(arrivals)),
      policy_(policy),
      pool_(pool != nullptr && pool->enabled() ? pool : nullptr)
{
    fatalIf(config_.maxBatch <= 0, "maxBatch must be positive");
    fatalIf(config_.prefillChunkTokens < 0,
            "prefillChunkTokens must be >= 0 (0 = off)");
}

std::int64_t
ContinuousBatcher::kvCapacity() const
{
    // Cache residency competes with live batches for the same KV
    // memory; pool_ is null whenever the cache is off, so the
    // cache-less capacity is exactly the configured cap.
    return pool_ == nullptr
               ? config_.maxKvTokens
               : config_.maxKvTokens - pool_->residentTokens();
}

void
ContinuousBatcher::applyPrefixCache(Request &r)
{
    if (pool_ == nullptr || r.generated > 0 || r.prefilled > 0)
        return;
    const std::int64_t hit = pool_->acquire(r);
    // The hit tokens are prefill already done: the cost model and
    // TTFT see only the uncached suffix (prefillSpan shrinks), and
    // cachedTokens carries the warm/cold tag to the observers.
    r.prefilled = hit;
    r.cachedTokens = hit;
}

bool
ContinuousBatcher::allDone() const
{
    return arrivals_.empty() && ready_.empty() && active_.empty();
}

PicoSec
ContinuousBatcher::nextArrival() const
{
    // Requests in the ready pool have already arrived; their front
    // timestamp keeps the idleAdvance rule moving when a policy
    // gates admission with the queue non-empty.
    return ready_.empty() ? arrivals_.nextArrival()
                          : ready_.front().arrival;
}

std::int64_t
ContinuousBatcher::prefillSpan(const Request &r) const
{
    const std::int64_t remaining = r.inputLen - r.prefilled;
    return config_.prefillChunkTokens > 0
               ? std::min(config_.prefillChunkTokens, remaining)
               : remaining;
}

SchedSnapshot
ContinuousBatcher::snapshot(PicoSec now,
                            const StageShape &stage) const
{
    SchedSnapshot s;
    s.now = now;
    s.maxBatch = config_.maxBatch;
    s.maxPrefillsPerStage = config_.maxPrefillsPerStage;
    s.maxKvTokens = config_.maxKvTokens;
    s.activeLifetimeKv = activeLifetimeKv_;
    s.activeCount = active_.size();
    s.queuedCount = ready_.size();
    s.stagePrefills = static_cast<int>(stage.prefillLengths.size());
    return s;
}

const StageShape &
ContinuousBatcher::formStage(PicoSec now)
{
    panicIf(stageOpen_, "formStage called with a stage in flight");
    // One shape reused stage after stage: its vectors keep their
    // capacity, so forming a mixed stage allocates nothing.
    StageShape &stage = stage_;
    stage.decodeContexts.clear();
    stage.prefillLengths.clear();
    stage.agg = {};

    if (config_.prefillChunkTokens > 0) {
        // Continuing chunks: requests admitted in earlier stages
        // whose prompt is still in flight always run their next
        // chunk — ahead of any new admission, and counted against
        // the stage's prefill budget so chunks and fresh prompts
        // share one cap.
        for (const Request &r : active_) {
            if (r.prefilled < r.inputLen) {
                const std::int64_t span = prefillSpan(r);
                stage.prefillLengths.push_back(span);
                stage.agg.addPrefill(span);
            }
        }
    }

    admit(now, stage);

    if (config_.exactStageView) {
        // Opt-in slow path: per-context values for consumers that
        // stripe the batch (multi-node nodeShare).
        for (const auto &r : active_) {
            if (r.generated > 0)
                stage.decodeContexts.push_back(r.contextLen());
        }
    }
    stage.agg.numDecode = decodeAgg_.numDecode;
    stage.agg.contextSum = decodeAgg_.contextSum;
    stage.aggValid = true;

    if (stage.agg.numPrefill > 0)
        ++mixed_;
    else if (stage.agg.numDecode > 0)
        ++decodeOnly_;

    stageOpen_ = stage.totalTokens() > 0;
    return stage;
}

void
ContinuousBatcher::admit(PicoSec now, StageShape &stage)
{
    // Due open-loop arrivals join the ready pool so the policy can
    // reorder among them; closed-loop draws stay in the arrival
    // queue and are offered FIFO after any requeued work.
    arrivals_.popArrived(now, ready_);

    // KV headroom starts from the incrementally maintained lifetime
    // sum, so forming a stage costs O(admissions), not O(batch).
    // Within one stage, earlier admissions add only their prompt,
    // so a multi-admit stage can still overshoot the cap late in
    // generation.
    std::int64_t kv = activeLifetimeKv_;
    for (;;) {
        // Every policy call of one attempt sees the same state.
        const SchedSnapshot snap = snapshot(now, stage);
        if (static_cast<int>(stage.prefillLengths.size()) >=
            policy_.prefillBudget(snap))
            break;
        const bool from_ready = !ready_.empty();
        std::size_t pick = 0;
        const Request *cand = nullptr;
        if (from_ready) {
            const int choice = policy_.nextAdmission(ready_, snap);
            if (choice < 0)
                break;
            panicIf(static_cast<std::size_t>(choice) >= ready_.size(),
                    "SchedulingPolicy::nextAdmission index out of "
                    "range");
            pick = static_cast<std::size_t>(choice);
            cand = &ready_[pick];
        } else if (arrivals_.hasAdmissible(now)) {
            cand = &arrivals_.front();
        } else {
            break;
        }

        // The admission formula: the candidate's full KV
        // lifetime (prompt plus the tokens it will generate) plus
        // one slack slot per batch member.
        auto need = [&] {
            return kv + cand->inputLen + cand->outputLen +
                   static_cast<std::int64_t>(active_.size()) + 1;
        };
        auto slotFree = [&] {
            return active_.size() <
                   static_cast<std::size_t>(config_.maxBatch);
        };
        // Live work wins over cache residency, but the cache gives
        // way only to an admission it unblocks.
        auto reclaim = [&] {
            if (pool_ != nullptr && need() > kvCapacity())
                pool_->reclaim(need() - kvCapacity());
        };
        if (slotFree())
            reclaim();
        if (!slotFree() || need() > kvCapacity()) {
            // The KV shortfall is sized against the capacity a full
            // reclaim would leave, so victims are chosen as if the
            // cache were already gone; the cache goes only once a
            // policy commits to preempting.
            std::vector<std::size_t> &victims = victimScratch_;
            victims.clear();
            policy_.selectVictims(
                *cand, active_,
                std::max<std::int64_t>(0,
                                       need() - config_.maxKvTokens),
                slotFree() ? 0 : 1, snap, victims);
            if (victims.empty())
                break;
            reclaim();
            // Evict highest index first so the remaining indices
            // stay valid; duplicates would double-evict.
            std::sort(victims.begin(), victims.end(),
                      std::greater<std::size_t>());
            for (std::size_t i = 1; i < victims.size(); ++i)
                panicIf(victims[i] == victims[i - 1],
                        "SchedulingPolicy::selectVictims returned "
                        "a duplicate index");
            for (std::size_t idx : victims) {
                panicIf(idx >= active_.size(),
                        "SchedulingPolicy::selectVictims index "
                        "out of range");
                kv -= active_[idx].inputLen +
                      active_[idx].outputLen;
                preemptActive(idx);
            }
            if (!slotFree() || need() > kvCapacity())
                break; // the evictions still do not make room
        }

        Request admitted;
        if (from_ready) {
            admitted = std::move(ready_[pick]);
            ready_.erase(ready_.begin() +
                         static_cast<std::ptrdiff_t>(pick));
        } else {
            admitted = arrivals_.pop(now);
        }
        applyPrefixCache(admitted);
        kv += admitted.inputLen;
        activeLifetimeKv_ += admitted.inputLen + admitted.outputLen;
        ++admissions_;
        const std::int64_t span = prefillSpan(admitted);
        stage.prefillLengths.push_back(span);
        stage.agg.addPrefill(span);
        active_.push_back(std::move(admitted));
    }
}

void
ContinuousBatcher::preemptActive(std::size_t index)
{
    panicIf(index >= active_.size(),
            "preemption victim index out of range");
    panicIf(active_[index].generated < 1,
            "preemption victim must be a decoding request");
    Request victim = std::move(active_[index]);
    active_.erase(active_.begin() +
                  static_cast<std::ptrdiff_t>(index));
    decodeAgg_.removeDecode(victim.contextLen());
    activeLifetimeKv_ -= victim.inputLen + victim.outputLen;
    preemptedTokens_ += victim.generated;
    ++preempted_;
    // The victim's KV is gone with its batch slot.
    victim.restartFromPrefill();
    ready_.push_back(std::move(victim));
}

void
ContinuousBatcher::completeStage(PicoSec now)
{
    panicIf(!stageOpen_, "completeStage without a stage in flight");
    stageOpen_ = false;

    // Compact the batch in place, in order: a request moves only
    // when an earlier retirement left a gap before it.
    const std::int64_t chunk = config_.prefillChunkTokens;
    // This stage's log index: the first token it produces appends
    // `now` there, so a stage of prompt chunks alone logs nothing.
    const std::int64_t stage = stageLog_.next();
    std::size_t kept = 0;
    const auto keep = [&](Request &r, std::size_t at) {
        if (kept != at)
            active_[kept] = std::move(r);
        ++kept;
    };
    for (std::size_t i = 0; i < active_.size(); ++i) {
        Request &r = active_[i];
        if (chunk > 0 && r.prefilled < r.inputLen) {
            // Chunked prefill: this stage ran prefillSpan(r) prompt
            // tokens; only the chunk that finishes the prompt
            // produces the first token (the fall-through below).
            r.prefilled += prefillSpan(r);
            if (r.prefilled < r.inputLen) {
                keep(r, i);
                continue;
            }
        }
        if (stageLog_.next() == stage)
            stageLog_.append(now);
        // A request admitted by the stage just completed has not
        // produced a token yet — generated == 0 is the per-request
        // prefill flag (requests enter active_ only through
        // admission, which leaves generated untouched).
        if (r.generated == 0) {
            r.firstToken = now;
            r.generated = 1;
        } else {
            // Leaves the decode set at its stage-time context; it
            // rejoins below at the grown context unless retired.
            decodeAgg_.removeDecode(r.contextLen());
            r.generated += 1;
            if (r.decodeFrom < 0)
                r.decodeFrom = stage;
        }
        ++totalGenerated_;
        if (r.done()) {
            r.finished = now;
            stageLog_.fillTokenTimes(r);
            activeLifetimeKv_ -= r.inputLen + r.outputLen;
            // The session's full context (prompt + completion)
            // moves from the live batch into the prefix cache so
            // the next turn can start warm.
            if (pool_ != nullptr)
                pool_->install(r);
            finished_.push_back(std::move(r));
        } else {
            decodeAgg_.addDecode(r.contextLen());
            keep(r, i);
        }
    }
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(kept),
                  active_.end());
    stageLog_.trim(active_);
}

void
ContinuousBatcher::drainFinished(std::vector<Request> &out)
{
    out.clear();
    std::swap(out, finished_);
}

void
ContinuousBatcher::evictAll(std::vector<Request> &out)
{
    panicIf(stageOpen_, "evictAll with a stage in flight");
    // The ready pool holds the earliest arrivals (admission drains
    // due requests there), so it drains first to keep the
    // queued-in-arrival-order contract.
    for (auto &r : ready_)
        out.push_back(std::move(r));
    ready_.clear();
    arrivals_.drainPending(out);
    for (auto &r : active_)
        out.push_back(std::move(r));
    active_.clear();
    // The instance's KV is gone with the requests: reset the
    // incremental accounting the next admissions rebuild.
    decodeAgg_ = StageAggregates{};
    activeLifetimeKv_ = 0;
}

void
ContinuousBatcher::evictQueued(std::vector<Request> &out)
{
    panicIf(stageOpen_, "evictQueued with a stage in flight");
    // Same drain order as evictAll's queued half; the active batch
    // keeps running, so its accounting stays live.
    for (auto &r : ready_)
        out.push_back(std::move(r));
    ready_.clear();
    arrivals_.drainPending(out);
}

} // namespace duplex
