#include "sched/policy.hh"

#include <algorithm>

#include "common/log.hh"

namespace duplex
{

namespace
{

/**
 * The paper's admission rule: strict arrival order, configured
 * prefill cap, no preemption.
 */
class FcfsPolicy : public SchedulingPolicy
{
  public:
    int nextAdmission(const std::deque<Request> &,
                      const SchedSnapshot &) override
    {
        return 0;
    }

    const std::string &name() const override
    {
        static const std::string kName = "fcfs";
        return kName;
    }

    std::string describe() const override
    {
        return "arrival order, fixed prefill cap (the default)";
    }
};

/**
 * TTFT protection under burst: admission stays FCFS, but when the
 * queue holds more prompts than one stage's prefill cap — the
 * backlog a burst builds — the per-stage cap widens to the batch
 * size so queued prefills drain in one or two stages instead of
 * cap-at-a-time. Each waiting stage costs a queued request its
 * whole stage time in TTFT; draining the backlog early spends TBT
 * (bigger mixed stages) to protect TTFT — the bench_policies
 * bursty column shows the trade.
 */
class TtftProtectPolicy : public SchedulingPolicy
{
  public:
    int nextAdmission(const std::deque<Request> &,
                      const SchedSnapshot &) override
    {
        return 0;
    }

    int prefillBudget(const SchedSnapshot &snap) const override
    {
        const bool backlog =
            snap.queuedCount >
            static_cast<std::size_t>(snap.maxPrefillsPerStage);
        return backlog ? snap.maxBatch : snap.maxPrefillsPerStage;
    }

    const std::string &name() const override
    {
        static const std::string kName = "ttft-protect";
        return kName;
    }

    std::string describe() const override
    {
        return "FCFS, but widen the prefill cap to the batch size "
               "while a queue backlog exists";
    }
};

/**
 * Priority classes: the highest Request.priorityClass in the queue
 * admits first (FIFO within a class), and a high-class candidate
 * that does not fit may preempt strictly-lower-class decodes.
 * Victim selection is KV-aware and greedy: lowest class first,
 * largest lifetime-KV footprint within a class (fewest evictions
 * free the most room), youngest (highest id) on ties. If even
 * evicting every eligible victim cannot fit the candidate, nothing
 * is evicted — no useless preemption.
 */
class PriorityPolicy : public SchedulingPolicy
{
  public:
    int nextAdmission(const std::deque<Request> &queue,
                      const SchedSnapshot &) override
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < queue.size(); ++i)
            if (queue[i].priorityClass > queue[best].priorityClass)
                best = i;
        return static_cast<int>(best);
    }

    void selectVictims(const Request &cand,
                       const std::vector<Request> &active,
                       std::int64_t need_kv, int need_slots,
                       const SchedSnapshot &,
                       std::vector<std::size_t> &victims) override
    {
        victims.clear();
        std::vector<std::size_t> eligible;
        for (std::size_t i = 0; i < active.size(); ++i)
            if (active[i].generated >= 1 &&
                active[i].priorityClass < cand.priorityClass)
                eligible.push_back(i);
        auto lifetime = [&](std::size_t i) {
            return active[i].inputLen + active[i].outputLen;
        };
        std::sort(eligible.begin(), eligible.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (active[a].priorityClass !=
                          active[b].priorityClass)
                          return active[a].priorityClass <
                                 active[b].priorityClass;
                      if (lifetime(a) != lifetime(b))
                          return lifetime(a) > lifetime(b);
                      return active[a].id > active[b].id;
                  });
        std::int64_t freed_kv = 0;
        int freed_slots = 0;
        for (std::size_t i : eligible) {
            if (freed_kv >= need_kv && freed_slots >= need_slots)
                break;
            victims.push_back(i);
            // An eviction frees the victim's lifetime KV and the
            // +1 slack slot its batch membership consumed in the
            // admission formula.
            freed_kv += lifetime(i) + 1;
            freed_slots += 1;
        }
        if (freed_kv < need_kv || freed_slots < need_slots)
            victims.clear();
    }

    const std::string &name() const override
    {
        static const std::string kName = "priority";
        return kName;
    }

    std::string describe() const override
    {
        return "highest priorityClass admits first and may preempt "
               "lower-class decodes (KV-aware victims)";
    }
};

template <typename Policy>
SchedulingPolicyFactory
factoryOf()
{
    return [] { return std::make_unique<Policy>(); };
}

void
registerStockPolicies(SchedulingPolicyRegistry &registry)
{
    registry.add("fcfs",
                 "arrival order, fixed prefill cap (the default)",
                 factoryOf<FcfsPolicy>());
    registry.add("ttft-protect",
                 "FCFS, but widen the prefill cap to the batch "
                 "size while a queue backlog exists",
                 factoryOf<TtftProtectPolicy>());
    registry.add("priority",
                 "highest priorityClass admits first and may "
                 "preempt lower-class decodes (KV-aware victims)",
                 factoryOf<PriorityPolicy>());
}

} // namespace

SchedulingPolicyRegistry &
SchedulingPolicyRegistry::instance()
{
    static SchedulingPolicyRegistry *registry = [] {
        auto *r = new SchedulingPolicyRegistry;
        registerStockPolicies(*r);
        return r;
    }();
    return *registry;
}

void
SchedulingPolicyRegistry::add(const std::string &id,
                              const std::string &summary,
                              SchedulingPolicyFactory factory)
{
    fatalIf(contains(id),
            "SchedulingPolicyRegistry: duplicate policy id '" +
                id + "'");
    fatalIf(!factory,
            "SchedulingPolicyRegistry: null factory for '" + id +
                "'");
    entries_.push_back({id, summary, std::move(factory)});
}

bool
SchedulingPolicyRegistry::contains(const std::string &id) const
{
    for (const Entry &e : entries_)
        if (e.id == id)
            return true;
    return false;
}

const SchedulingPolicyRegistry::Entry &
SchedulingPolicyRegistry::find(const std::string &id) const
{
    for (const Entry &e : entries_)
        if (e.id == id)
            return e;
    std::string known;
    for (const std::string &k : ids())
        known += (known.empty() ? "" : ", ") + k;
    fatal("SchedulingPolicyRegistry: unknown policy '" + id +
          "' (known: " + known + ")");
}

std::unique_ptr<SchedulingPolicy>
SchedulingPolicyRegistry::make(const std::string &id) const
{
    return find(id).factory();
}

std::vector<std::string>
SchedulingPolicyRegistry::ids() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.id);
    std::sort(out.begin(), out.end());
    return out;
}

const std::string &
SchedulingPolicyRegistry::summary(const std::string &id) const
{
    return find(id).summary;
}

std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const std::string &id)
{
    return SchedulingPolicyRegistry::instance().make(id);
}

std::vector<std::string>
registeredSchedulingPolicies()
{
    return SchedulingPolicyRegistry::instance().ids();
}

void
registerSchedulingPolicy(const std::string &id,
                         const std::string &summary,
                         SchedulingPolicyFactory factory)
{
    SchedulingPolicyRegistry::instance().add(id, summary,
                                             std::move(factory));
}

} // namespace duplex
