/**
 * @file
 * Pluggable scheduling policies for the continuous batcher.
 *
 * The ContinuousBatcher (sched/batcher.hh) admits FCFS: requests
 * enter the batch in arrival order until a slot, prefill-cap or KV
 * limit stops admission. A SchedulingPolicy makes that loop
 * pluggable along three axes:
 *
 *  - admission ORDER: nextAdmission() picks which queued request is
 *    tried next (priority classes jump the line);
 *  - admission GATING: prefillBudget() bounds the prefill entries
 *    one stage may carry (ttft-protect widens it under burst so a
 *    queue of prompts drains before their TTFT budget burns);
 *  - decode PREEMPTION: selectVictims() names active decodes to
 *    evict when a candidate does not fit. Victims lose their KV and
 *    re-queue from prefill — the same lifecycle reset the fleet's
 *    crash-retry path applies (fleet/fleet.cc scheduleRetry).
 *
 * Policies read the batcher's queue and active set in place,
 * read-only, and must be pure functions of them: no RNG, no wall
 * clock, no hidden mutable state beyond their own deterministic
 * counters. That purity is what lets every policy double-run
 * byte-identical in the CI determinism job, exactly like routing
 * policies (fleet/policy.hh).
 *
 * Policies register in a string-keyed registry mirroring
 * sim/registry.hh, workload/registry.hh and fleet/policy.hh —
 * completing the experiment grid's fourth axis: system x workload x
 * routing x scheduling. Stock policies: "fcfs", "ttft-protect",
 * "priority". A new policy is one registerSchedulingPolicy call —
 * see the ROADMAP recipe.
 */

#ifndef DUPLEX_SCHED_POLICY_HH
#define DUPLEX_SCHED_POLICY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workload/request.hh"

namespace duplex
{

/** The batcher's admission state as a policy sees it. Rebuilt for
 *  every policy call within a stage, so counts reflect admissions
 *  and preemptions already made while forming it. */
struct SchedSnapshot
{
    PicoSec now = 0;

    // --- configured limits -------------------------------------
    int maxBatch = 0;
    int maxPrefillsPerStage = 0;
    std::int64_t maxKvTokens = 0;

    // --- live state --------------------------------------------
    /** Full-lifetime KV commitment of the active batch. */
    std::int64_t activeLifetimeKv = 0;

    /** Requests currently in the batch (decode + admitted). */
    std::size_t activeCount = 0;

    /** Arrived requests waiting for admission (the queue
     *  nextAdmission() indexes into). */
    std::size_t queuedCount = 0;

    /** Prefill entries already in the stage being formed
     *  (continuing chunks + admissions so far). */
    int stagePrefills = 0;
};

/**
 * Admission ordering/gating plus optional decode preemption.
 * Decisions must be deterministic in (snapshot, queue, batch, own past
 * decisions) — the no-RNG contract above.
 */
class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    /** Registry id / display handle ("fcfs", "priority", ...). */
    virtual const std::string &name() const = 0;

    /** One-line description of the scheduling rule. */
    virtual std::string describe() const = 0;

    /**
     * Pick the next admission attempt from @p queue (arrived,
     * admission-eligible requests in arrival order; non-empty).
     * Return its index, or -1 to gate admission for the rest of
     * this stage. The batcher still applies the batch/KV/prefill
     * limits to the pick; a pick that does not fit triggers
     * selectVictims() and, failing that, ends admission.
     */
    virtual int nextAdmission(const std::deque<Request> &queue,
                              const SchedSnapshot &snap) = 0;

    /**
     * Prefill entries (continuing chunks + new admissions) one
     * stage may carry; called before each admission attempt.
     * Default: the configured per-stage cap.
     */
    virtual int prefillBudget(const SchedSnapshot &snap) const
    {
        return snap.maxPrefillsPerStage;
    }

    /**
     * Candidate @p cand does not fit: @p need_kv lifetime-KV tokens
     * over capacity and/or @p need_slots batch slots short. Append
     * indices into @p active (the active batch, admission order) to
     * evict, or leave @p victims empty to give up — the batcher
     * then stops admitting for this stage. Only decoding requests
     * (generated >= 1) are eligible; naming a mid-prefill entry is
     * a contract violation (the batcher panics). Victims re-queue
     * from prefill with their KV gone. Default: never preempt.
     */
    virtual void
    selectVictims(const Request &cand,
                  const std::vector<Request> &active,
                  std::int64_t need_kv, int need_slots,
                  const SchedSnapshot &snap,
                  std::vector<std::size_t> &victims)
    {
        (void)cand;
        (void)active;
        (void)need_kv;
        (void)need_slots;
        (void)snap;
        victims.clear();
    }
};

/** Builds one (stateful) policy instance per run. */
using SchedulingPolicyFactory =
    std::function<std::unique_ptr<SchedulingPolicy>()>;

/** Registry of every scheduling policy a batcher can use. */
class SchedulingPolicyRegistry
{
  public:
    /** The process-wide registry, with the stock policies loaded. */
    static SchedulingPolicyRegistry &instance();

    /** Register a policy; re-registering an id is fatal. */
    void add(const std::string &id, const std::string &summary,
             SchedulingPolicyFactory factory);

    /** True when @p id is registered. */
    bool contains(const std::string &id) const;

    /** Build a fresh policy instance; fatal on an unknown id. */
    std::unique_ptr<SchedulingPolicy>
    make(const std::string &id) const;

    /**
     * Registered ids, lexicographically sorted — NOT registration
     * order (matches every other registry; keeps policy sweep
     * tables byte-stable across standard libraries).
     */
    std::vector<std::string> ids() const;

    /** One-line summary for --list-scheds style output. */
    const std::string &summary(const std::string &id) const;

  private:
    struct Entry
    {
        std::string id;
        std::string summary;
        SchedulingPolicyFactory factory;
    };

    std::vector<Entry> entries_;

    const Entry &find(const std::string &id) const;
};

/** Build a registered policy (shorthand for the registry). */
std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const std::string &id);

/** Ids of every registered policy, sorted. */
std::vector<std::string> registeredSchedulingPolicies();

/** Register a policy with the process-wide registry. */
void registerSchedulingPolicy(const std::string &id,
                              const std::string &summary,
                              SchedulingPolicyFactory factory);

} // namespace duplex

#endif // DUPLEX_SCHED_POLICY_HH
