/**
 * @file
 * Deterministic fault injection for a serving fleet.
 *
 * The PR-6 fleet assumes every instance is perfectly reliable — the
 * one assumption production never grants. This subsystem schedules
 * the failures a replicated serving fleet actually sees and keeps
 * them inside the simulator's determinism contract:
 *
 *  - fail-stop crashes: the instance loses every queued and active
 *    request (their KV is gone — retries restart from prefill) and
 *    stays down for a repair interval before rejoining;
 *  - degraded-straggler windows: the instance carries a stage-time
 *    multiplier for a bounded interval (thermal throttling, a noisy
 *    neighbor, a flaky link) while still serving;
 *  - timed recovery: a crashed instance rejoins with an empty batch
 *    at its repair time, a degraded one sheds its multiplier when
 *    the window closes;
 *  - correlated domain crashes: a failure-domain map (rack/zone)
 *    stripes instances over --domains=N domains, and a dedicated
 *    domain-level fault stream (domainStreamSeed) strikes whole
 *    domains at once — the correlated loss production actually
 *    sees;
 *  - proactive draining: a degrade window whose factor crosses
 *    FaultSpec::drainFactorThreshold stops the instance admitting
 *    and migrates its queued (not active) requests back through
 *    the router instead of waiting to crash-and-retry.
 *
 * Events come either from an explicit list (tests, reproducible
 * scenarios, the quickstart --faults flag) or from seeded MTBF/MTTR
 * draws. Random draws use a DEDICATED per-instance fault RNG stream
 * (faultStreamSeed) so the workload and expert-draw golden streams
 * are untouched: a fleet run with faults disabled is byte-identical
 * to the PR-6 fleet, and every faulted run double-runs
 * byte-identical (pinned in tests/fleet/test_faults.cc and the CI
 * determinism job).
 *
 * FleetDriver (fleet/fleet.hh) owns the failure semantics — this
 * file owns only the schedule (FaultSpec -> per-instance and
 * per-domain FaultPlans) and the retry discipline (RetrySpec).
 */

#ifndef DUPLEX_FLEET_FAULTS_HH
#define DUPLEX_FLEET_FAULTS_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"

namespace duplex
{

/** What kind of fault (or recovery) happened to an instance. */
enum class FaultKind
{
    Crash,   //!< fail-stop: queued + active requests and KV lost
    Degrade, //!< straggler window: stage times scaled by a factor
    Rejoin,  //!< recovery (reported only; never scheduled directly)
    Drain    //!< proactive drain of a heavy straggler (reported
             //!< only; fires when a degrade crosses the threshold)
};

/** Short display name ("crash", "degrade", "rejoin", "drain"). */
const char *faultKindName(FaultKind kind);

/** One scheduled fault against one instance (or a whole domain). */
struct FaultEvent
{
    FaultKind kind = FaultKind::Crash;

    int instance = -1; //!< target instance id (-1: domain event)

    /**
     * Target failure domain (-1: a plain per-instance event). A
     * domain crash strikes every live instance the domain map
     * places in the domain — the correlated rack/zone loss.
     */
    int domain = -1;

    PicoSec at = 0; //!< when the fault strikes (simulated time)

    /**
     * Crash: downtime before the instance rejoins (-1 = never).
     * Degrade: length of the straggler window (must be positive).
     */
    PicoSec duration = -1;

    /** Stage-time multiplier while degraded (Degrade only, > 0). */
    double factor = 1.0;
};

/**
 * Fault schedule for a fleet run: an explicit event list, seeded
 * MTBF/MTTR draws, or both. Default-constructed = faults disabled,
 * which every fleet config gets unless asked otherwise — the
 * bit-identical-to-PR-6 contract.
 */
struct FaultSpec
{
    /** Explicit events (any instance, any order; sorted per
     *  instance by the plan). Validated at plan construction. */
    std::vector<FaultEvent> events;

    /**
     * Mean time between random faults per instance, in simulated
     * seconds; 0 disables the random process. Each instance draws
     * from its own dedicated fault RNG stream (faultStreamSeed), so
     * fault draws never perturb workload or expert streams.
     */
    double mtbfSec = 0.0;

    /** Mean repair time for random crashes (exponential draw). */
    double mttrSec = 2.0;

    /** Fraction of random faults that degrade instead of crash. */
    double stragglerFraction = 0.0;

    /** Stage-time multiplier of random straggler windows. */
    double stragglerFactor = 3.0;

    /** Straggler window length; 0 draws exponential(mttrSec). */
    double stragglerDurationSec = 0.0;

    // --- failure-domain topology (correlated loss) -------------

    /**
     * Failure domains the fleet is striped over (rack/zone model):
     * instance i lands in domain i % numDomains unless domainOf
     * overrides it. 0 (the default) = no domain topology; every
     * domain knob below is then inert.
     */
    int numDomains = 0;

    /** Explicit instance -> domain map; instances beyond the end
     *  fall back to the numDomains stripe. Entries must be >= 0. */
    std::vector<int> domainOf;

    /**
     * Mean time between correlated domain crashes, per domain, in
     * simulated seconds; 0 disables the random domain process.
     * Draws live on a dedicated per-domain fault stream
     * (domainStreamSeed) — a pure function of (spec, domain, seed),
     * never of fleet interleaving.
     */
    double domainMtbfSec = 0.0;

    /** Mean repair time of random domain crashes; 0 falls back to
     *  mttrSec. */
    double domainMttrSec = 0.0;

    /**
     * Proactive-drain threshold: a degrade window whose stage-time
     * factor is >= this stops the instance admitting and migrates
     * its queued (not active) requests back through the router
     * (FaultKind::Drain). 0 (the default) never drains.
     */
    double drainFactorThreshold = 0.0;

    /** Domains in the topology (stripe count or explicit map). */
    int domainCount() const
    {
        int n = numDomains;
        for (int d : domainOf)
            if (d + 1 > n)
                n = d + 1;
        return n;
    }

    /** True when a domain topology is configured. */
    bool hasDomains() const { return domainCount() > 0; }

    /** Domain of @p instance; -1 without a domain topology. */
    int domainFor(int instance) const
    {
        if (instance >= 0 &&
            instance < static_cast<int>(domainOf.size()))
            return domainOf[static_cast<std::size_t>(instance)];
        const int n = domainCount();
        return n > 0 ? instance % n : -1;
    }

    /** True when any fault can ever fire. */
    bool enabled() const
    {
        return !events.empty() || mtbfSec > 0.0 ||
               domainMtbfSec > 0.0;
    }
};

/** How lost requests flow back through the router after a crash. */
struct RetrySpec
{
    /**
     * Re-routes a request may consume before it is dropped: a
     * request crashed for the (maxAttempts+1)-th time is dropped
     * and counted in FleetResult.requestsDropped. 0 = never retry.
     */
    int maxAttempts = 3;

    /** Backoff before the first retry, in simulated seconds. */
    double backoffSec = 0.05;

    /**
     * Backoff growth per attempt: delay(k) = backoffSec *
     * multiplier^(k-1). 1.0 = fixed backoff.
     */
    double multiplier = 2.0;

    /** Simulated backoff ahead of attempt @p attempt (1-based). */
    PicoSec backoffFor(int attempt) const;
};

/**
 * The materialized fault timeline of ONE instance, or of ONE failure
 * domain: explicit events filtered and sorted, plus the lazily drawn
 * random process. The random stream re-arms only after the previous
 * fault's window ends (a machine cannot crash while it is already
 * down), so draws are a deterministic function of (spec, instance or
 * domain, seed) alone — never of fleet interleaving. A domain plan
 * draws only crashes; the FleetDriver fans each popped domain event
 * out to every live instance the domain map places in the domain.
 */
class FaultPlan
{
  public:
    /** An inert plan: pending() is false forever. */
    FaultPlan() = default;

    /**
     * Build instance @p instance's timeline under @p spec, after
     * validating the spec. The fault RNG is seeded from
     * faultStreamSeed(@p fleet_seed, @p instance) — disjoint from
     * every workload/expert stream.
     */
    FaultPlan(const FaultSpec &spec, int instance,
              std::uint64_t fleet_seed);

    /**
     * Build domain @p domain's timeline: its domain-targeted
     * crashes plus the correlated crash process (domainMtbfSec,
     * repairs drawn from domainMttrSec or else mttrSec). The RNG is
     * seeded from domainStreamSeed(@p fleet_seed, @p domain) —
     * disjoint from every instance fault stream.
     */
    static FaultPlan forDomain(const FaultSpec &spec, int domain,
                               std::uint64_t fleet_seed);

    /** True when another fault is scheduled. */
    bool pending() const;

    /** Strike time of the next fault; -1 when none pending. */
    PicoSec nextAt() const;

    /**
     * Consume the next fault. Random events draw their kind and
     * window here (one fixed draw order), then re-arm the process
     * after the window closes.
     */
    FaultEvent pop();

  private:
    std::deque<FaultEvent> explicit_;

    bool random_ = false;
    int instance_ = -1;
    int domain_ = -1;
    double mtbfSec_ = 0.0;
    double mttrSec_ = 0.0;
    double stragglerFraction_ = 0.0;
    double stragglerFactor_ = 1.0;
    double stragglerDurationSec_ = 0.0;
    Rng rng_{0};
    PicoSec nextRandomAt_ = -1;

    /** Sort the explicit events, then arm the random process. */
    void start();

    void armRandom(PicoSec after);
};

/**
 * Seed of instance @p instance's dedicated fault stream. Mixed away
 * from the `seed + instance` workload streams (splitmix finalizer
 * plus a fault-only salt), so enabling faults cannot perturb any
 * golden draw sequence.
 */
std::uint64_t faultStreamSeed(std::uint64_t fleet_seed,
                              int instance);

/**
 * Seed of domain @p domain's dedicated correlated-fault stream.
 * Salted differently from faultStreamSeed, so domain draws are
 * disjoint from every per-instance fault stream as well as every
 * workload/expert stream.
 */
std::uint64_t domainStreamSeed(std::uint64_t fleet_seed,
                               int domain);

/**
 * Parse the quickstart/bench --faults grammar: a semicolon- or
 * comma-separated list of events,
 *
 *   crash@<sec>:<instance>[:<downtime-sec>]
 *   crash@<sec>:domain=<D>[:<downtime-sec>]
 *   degrade@<sec>:<instance>:<window-sec>[:<factor>]
 *
 * e.g. "crash@2:0;degrade@4:1:2:3.5;crash@6:domain=1:0.5". A crash
 * without a downtime never rejoins; the degrade factor defaults to
 * 3; a domain= crash strikes every instance of the domain at once
 * (needs a domain map — --domains or FaultSpec::domainOf).
 * Malformed items are fatal with a message naming the offending
 * item.
 */
std::vector<FaultEvent> parseFaultList(const std::string &text);

} // namespace duplex

#endif // DUPLEX_FLEET_FAULTS_HH
