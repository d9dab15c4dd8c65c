#include "fleet/policy.hh"

#include <algorithm>

#include "common/log.hh"

namespace duplex
{

namespace
{

/**
 * Cycle through the offered instances in order. The cursor counts
 * routed requests, so the rotation is stable even as autoscaling
 * grows or shrinks the offered set between requests.
 */
class RoundRobinPolicy : public RoutingPolicy
{
  public:
    int route(const Request &,
              const std::vector<InstanceStatus> &instances) override
    {
        const std::size_t k = cursor_++ % instances.size();
        return instances[k].id;
    }

    const std::string &name() const override
    {
        static const std::string kName = "round-robin";
        return kName;
    }

    std::string describe() const override
    {
        return "cycle through instances in id order";
    }

  private:
    std::size_t cursor_ = 0;
};

/**
 * Send the request where the most KV capacity is free: argmax of
 * kvHeadroom (live lifetime-KV sum plus queued commitments already
 * subtracted), lowest instance id on ties. This is the load the
 * batcher actually admits against, so balancing it balances
 * admission stalls.
 */
class LeastLoadedPolicy : public RoutingPolicy
{
  public:
    int route(const Request &,
              const std::vector<InstanceStatus> &instances) override
    {
        const InstanceStatus *best = &instances.front();
        for (const InstanceStatus &s : instances)
            if (s.kvHeadroom > best->kvHeadroom)
                best = &s;
        return best->id;
    }

    const std::string &name() const override
    {
        static const std::string kName = "least-loaded";
        return kName;
    }

    std::string describe() const override
    {
        return "most free KV capacity (live lifetime-KV headroom)";
    }
};

/**
 * Classic JSQ: argmin of in-flight requests (queued plus active),
 * lowest instance id on ties. Blind to request length, so a fleet
 * with mixed prompt sizes balances counts, not KV — the contrast
 * with least-loaded is the point of the bench_fleet sweep.
 */
class JoinShortestQueuePolicy : public RoutingPolicy
{
  public:
    int route(const Request &,
              const std::vector<InstanceStatus> &instances) override
    {
        const InstanceStatus *best = &instances.front();
        auto depth = [](const InstanceStatus &s) {
            return s.queueDepth + s.activeCount;
        };
        for (const InstanceStatus &s : instances)
            if (depth(s) < depth(*best))
                best = &s;
        return best->id;
    }

    const std::string &name() const override
    {
        static const std::string kName = "join-shortest-queue";
        return kName;
    }

    std::string describe() const override
    {
        return "fewest in-flight requests (queued + active)";
    }
};

/**
 * Pin a session's turns to one instance (warm KV reuse in a real
 * deployment): hash the session id over the offered set with the
 * cross-stdlib-stable splitmix mix. Session-less requests fall back
 * to hashing their request id, which spreads them uniformly. The
 * mapping is stable while the offered set is — a scale event
 * remaps, the usual consistent-hashing caveat.
 */
class SessionAffinityPolicy : public RoutingPolicy
{
  public:
    int route(const Request &request,
              const std::vector<InstanceStatus> &instances) override
    {
        const std::uint64_t key =
            request.sessionId >= 0
                ? static_cast<std::uint64_t>(request.sessionId)
                : mixSessionHash(
                      static_cast<std::uint64_t>(request.id));
        const std::size_t k = static_cast<std::size_t>(
            mixSessionHash(key) % instances.size());
        return instances[k].id;
    }

    const std::string &name() const override
    {
        static const std::string kName = "session-affinity";
        return kName;
    }

    std::string describe() const override
    {
        return "hash sessionId to an instance (stable per session)";
    }
};

/**
 * Failure-aware routing: least-loaded (argmax kvHeadroom, lowest id
 * on ties) restricted to Healthy instances; only when every offered
 * instance is inside a degraded-straggler window does it fall back
 * to the full set. In a fault-free fleet every instance is Healthy,
 * so healthy-first IS least-loaded bit-for-bit — the no-fault
 * golden contract extends to the policy (pinned in
 * tests/fleet/test_faults.cc).
 */
class HealthyFirstPolicy : public RoutingPolicy
{
  public:
    int route(const Request &,
              const std::vector<InstanceStatus> &instances) override
    {
        const InstanceStatus *best = nullptr;
        for (const InstanceStatus &s : instances)
            if (s.health == InstanceHealth::Healthy &&
                (best == nullptr || s.kvHeadroom > best->kvHeadroom))
                best = &s;
        if (best == nullptr)
            for (const InstanceStatus &s : instances)
                if (best == nullptr ||
                    s.kvHeadroom > best->kvHeadroom)
                    best = &s;
        return best->id;
    }

    const std::string &name() const override
    {
        static const std::string kName = "healthy-first";
        return kName;
    }

    std::string describe() const override
    {
        return "least-loaded among healthy instances; degraded "
               "only as a last resort";
    }
};

/**
 * Failure-domain-aware routing: pick the domain (rack/zone, as the
 * fault topology maps it into InstanceStatus::domain) holding the
 * fewest in-flight requests, then least-loaded (argmax kvHeadroom,
 * lowest id on ties) within it — so one correlated domain crash
 * takes out the smallest possible slice of in-flight work. Healthy
 * instances are preferred exactly like healthy-first: degraded ones
 * join only when no healthy instance is offered. Domain-less
 * instances (no domain map) count as singleton domains, which
 * degenerates into spreading by in-flight count.
 */
class DomainSpreadPolicy : public RoutingPolicy
{
  public:
    int route(const Request &,
              const std::vector<InstanceStatus> &instances) override
    {
        const InstanceStatus *best = pick(instances, true);
        if (best == nullptr)
            best = pick(instances, false);
        return best->id;
    }

    const std::string &name() const override
    {
        static const std::string kName = "domain-spread";
        return kName;
    }

    std::string describe() const override
    {
        return "least-loaded inside the failure domain with the "
               "fewest in-flight requests";
    }

  private:
    /** In-flight load of @p s's domain over the offered set; a
     *  domain-less instance is its own singleton domain. */
    static std::int64_t
    domainLoad(const InstanceStatus &s,
               const std::vector<InstanceStatus> &instances)
    {
        std::int64_t load = 0;
        for (const InstanceStatus &o : instances)
            if (o.id == s.id ||
                (s.domain >= 0 && o.domain == s.domain))
                load += static_cast<std::int64_t>(o.queueDepth) +
                        static_cast<std::int64_t>(o.activeCount);
        return load;
    }

    const InstanceStatus *
    pick(const std::vector<InstanceStatus> &instances,
         bool healthyOnly)
    {
        const InstanceStatus *best = nullptr;
        std::int64_t bestLoad = 0;
        for (const InstanceStatus &s : instances) {
            if (healthyOnly && s.health != InstanceHealth::Healthy)
                continue;
            const std::int64_t load = domainLoad(s, instances);
            if (best == nullptr || load < bestLoad ||
                (load == bestLoad &&
                 s.kvHeadroom > best->kvHeadroom)) {
                best = &s;
                bestLoad = load;
            }
        }
        return best;
    }
};

template <typename Policy>
RoutingPolicyFactory
factoryOf()
{
    return [] { return std::make_unique<Policy>(); };
}

void
registerStockPolicies(RoutingPolicyRegistry &registry)
{
    registry.add("round-robin",
                 "cycle through instances in id order",
                 factoryOf<RoundRobinPolicy>());
    registry.add("least-loaded",
                 "most free KV capacity (live lifetime-KV headroom)",
                 factoryOf<LeastLoadedPolicy>());
    registry.add("join-shortest-queue",
                 "fewest in-flight requests (queued + active)",
                 factoryOf<JoinShortestQueuePolicy>());
    registry.add("session-affinity",
                 "hash sessionId to an instance (stable per session)",
                 factoryOf<SessionAffinityPolicy>());
    registry.add("healthy-first",
                 "least-loaded among healthy instances; degraded "
                 "only as a last resort",
                 factoryOf<HealthyFirstPolicy>());
    registry.add("domain-spread",
                 "least-loaded inside the failure domain with the "
                 "fewest in-flight requests",
                 factoryOf<DomainSpreadPolicy>());
}

} // namespace

template <>
RoutingPolicyRegistry &
RoutingPolicyRegistry::instance()
{
    static RoutingPolicyRegistry *registry = [] {
        auto *r = new RoutingPolicyRegistry("RoutingPolicyRegistry", "policy");
        registerStockPolicies(*r);
        return r;
    }();
    return *registry;
}

std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(const std::string &id)
{
    return RoutingPolicyRegistry::instance().make(id);
}

std::vector<std::string>
registeredRoutingPolicies()
{
    return RoutingPolicyRegistry::instance().ids();
}

void
registerRoutingPolicy(const std::string &id,
                      const std::string &summary,
                      RoutingPolicyFactory factory)
{
    RoutingPolicyRegistry::instance().add(id, summary,
                                          std::move(factory));
}

} // namespace duplex
