/**
 * @file
 * Pluggable request-routing policies for a serving fleet.
 *
 * A FleetDriver (fleet/fleet.hh) fronts N registry-built serving
 * instances with one shared arrival stream; a RoutingPolicy picks
 * the instance each request lands on. Policies see only an
 * InstanceStatus snapshot per routable instance — queue depth,
 * active batch size, live KV headroom (the PR-5 incremental
 * lifetime-KV sum minus routed-but-unadmitted commitments) — and
 * must be pure functions of (request, snapshot): no RNG, no wall
 * clock, no hidden state beyond their own deterministic counters.
 * That purity is what makes a fleet run byte-reproducible (the CI
 * fleet-determinism diff) and a 1-instance fleet bit-identical to
 * the bare engine.
 *
 * Policies register in a string-keyed registry mirroring
 * sim/registry.hh and workload/registry.hh, completing the
 * experiment grid: system x workload x policy x fleet size. Stock
 * policies: "round-robin", "least-loaded", "join-shortest-queue",
 * "session-affinity", "healthy-first", "domain-spread". A new
 * policy is one registerRoutingPolicy call — see the ROADMAP
 * recipe.
 */

#ifndef DUPLEX_FLEET_POLICY_HH
#define DUPLEX_FLEET_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workload/request.hh"

namespace duplex
{

/**
 * Routable-instance health as the policies see it. Crashed (down)
 * instances are EJECTED from the routing snapshot entirely — a
 * policy never sees one — so the only states offered are serving
 * ones. Degraded marks a straggler window (stage times scaled up by
 * the fault injector, fleet/faults.hh): the instance still serves,
 * just slowly, and failure-aware policies can steer around it.
 */
enum class InstanceHealth
{
    Healthy,
    Degraded
};

/** One routable instance as the policy sees it. */
struct InstanceStatus
{
    int id = -1; //!< stable instance id (survives scale events)

    /**
     * Failure domain (rack/zone) the fault topology places the
     * instance in; -1 when no domain map is configured
     * (FaultSpec::domainFor). Domain-aware policies spread load so
     * one correlated domain crash takes out as little in-flight
     * work as possible.
     */
    int domain = -1;

    /** Healthy, or inside a degraded-straggler window. */
    InstanceHealth health = InstanceHealth::Healthy;

    /** Requests routed to the instance but not yet admitted. */
    std::size_t queueDepth = 0;

    /** Requests currently in the instance's batch. */
    std::size_t activeCount = 0;

    /**
     * KV tokens the instance can still commit to: capacity minus
     * the active batch's full-lifetime KV sum minus the lifetime KV
     * of routed-but-unadmitted requests. May go negative when a
     * queue holds more lifetime KV than the instance's capacity.
     */
    std::int64_t kvHeadroom = 0;

    /** KV capacity of the instance's serving system. */
    std::int64_t maxKvTokens = 0;

    /** The instance's simulation clock. */
    PicoSec clock = 0;
};

/**
 * Picks the instance each arriving request lands on. route() must
 * be deterministic in (request, instances, own past decisions).
 */
class RoutingPolicy
{
  public:
    virtual ~RoutingPolicy() = default;

    /**
     * Choose among @p instances (non-empty; only routable
     * instances are offered — down, draining and retiring ones
     * never appear). Returns the chosen InstanceStatus.id; an id
     * that was not offered is a panic.
     */
    virtual int route(const Request &request,
                      const std::vector<InstanceStatus> &instances)
        = 0;

    /** Registry id / display handle ("least-loaded", ...). */
    virtual const std::string &name() const = 0;

    /** One-line description of the routing rule. */
    virtual std::string describe() const = 0;
};

/** Builds one (stateful) policy instance per fleet run. */
using RoutingPolicyFactory =
    std::function<std::unique_ptr<RoutingPolicy>()>;

/** Registry of every routing policy a fleet can use. */
class RoutingPolicyRegistry
{
  public:
    /** The process-wide registry, with the stock policies loaded. */
    static RoutingPolicyRegistry &instance();

    /** Register a policy; re-registering an id is fatal. */
    void add(const std::string &id, const std::string &summary,
             RoutingPolicyFactory factory);

    /** True when @p id is registered. */
    bool contains(const std::string &id) const;

    /** Build a fresh policy instance; fatal on an unknown id. */
    std::unique_ptr<RoutingPolicy> make(const std::string &id) const;

    /**
     * Registered ids, lexicographically sorted — NOT registration
     * order (matches the system/workload registries; keeps fleet
     * sweep tables byte-stable across standard libraries).
     */
    std::vector<std::string> ids() const;

    /** One-line summary for --list-policies style output. */
    const std::string &summary(const std::string &id) const;

  private:
    struct Entry
    {
        std::string id;
        std::string summary;
        RoutingPolicyFactory factory;
    };

    std::vector<Entry> entries_;

    const Entry &find(const std::string &id) const;
};

/** Build a registered policy (shorthand for the registry). */
std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(const std::string &id);

/** Ids of every registered policy, sorted. */
std::vector<std::string> registeredRoutingPolicies();

/** Register a policy with the process-wide registry. */
void registerRoutingPolicy(const std::string &id,
                           const std::string &summary,
                           RoutingPolicyFactory factory);

/**
 * The deterministic integer mix session-affinity hashing uses
 * (splitmix64 finalizer). NOT std::hash — that may differ between
 * libstdc++ and libc++, and fleet runs must diff byte-identical
 * across the CI compiler matrix.
 */
inline std::uint64_t
mixSessionHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace duplex

#endif // DUPLEX_FLEET_POLICY_HH
