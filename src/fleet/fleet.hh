/**
 * @file
 * Fleet-scale serving: N registry-built instances behind a router.
 *
 * The engine evaluates a single serving instance; a production
 * deployment is a fleet of them behind a load balancer.
 * FleetDriver is that composition: it owns
 * N independent instances — each a registry-built ServingSystem
 * with its own ContinuousBatcher, RNG stream (seed + instance id)
 * and KV budget, driven by the same DriverLoop the engine runs — and
 * consumes ONE shared WorkloadSource stream, handing each arriving
 * request to a pluggable RoutingPolicy (fleet/policy.hh).
 *
 * Interleaving discipline (the determinism contract): a request is
 * routed once its arrival time reaches the minimum instance clock,
 * and the instance furthest behind in simulated time always steps
 * next (lowest id on ties). Routing therefore sees a reproducible
 * snapshot of instance state, every run is byte-identical, and a
 * 1-instance round-robin fleet executes the exact clock/stage
 * sequence of a bare SimulationEngine run (pinned bit-for-bit in
 * tests/fleet/test_fleet.cc).
 *
 * Autoscaling (ScaleSpec): the driver tracks the observed arrival
 * rate over a sliding window; sustained load above
 * upQpsPerInstance x fleet spins up a fresh instance (its clock
 * starts at the provisioning time), load below downQpsPerInstance x
 * fleet drains the highest-id accepting instance — no new
 * admissions, queued and active requests finish — before retiring
 * it. The last routable instance is never drained. Scale events
 * surface through FleetObserver.
 *
 * Fault injection (FleetConfig::faults, fleet/faults.hh): scheduled
 * or seeded crashes evict an instance's queued and active requests
 * (their KV is lost; retries restart from prefill after a RetrySpec
 * backoff, re-routed like fresh arrivals), down instances are
 * ejected from every routing snapshot until their repair time, and
 * degraded-straggler windows scale an instance's stage times while
 * failure-aware policies steer around it. A failure-domain map
 * (FaultSpec::numDomains / domainOf) adds correlated loss: a domain
 * crash — explicit or drawn from the per-domain fault stream —
 * strikes every instance of the rack/zone at once, and the
 * domain-spread routing policy plus the per-domain availability in
 * FleetResult measure how routing bounds the blast radius. A
 * degrade window past FaultSpec::drainFactorThreshold proactively
 * DRAINS the instance: it stops admitting and its queued (never
 * admitted) requests migrate back through the router with no retry
 * cost. All of it stays inside the determinism contract: fault
 * draws live on dedicated RNG streams, so a fleet with faults
 * disabled is byte-identical to one that never heard of them, and
 * every faulted run double-runs byte-identical.
 *
 * Each instance is in one lifecycle state at a time (fleet.cc
 * draws the state machine). When no instance is routable, the
 * driver applies the earliest scheduled transition that makes one
 * routable again — a repair or a drain-window close, repairs first
 * on ties, then the lowest id — and fails the run with a fatal
 * error when none is scheduled.
 */

#ifndef DUPLEX_FLEET_FLEET_HH
#define DUPLEX_FLEET_FLEET_HH

#include <deque>
#include <memory>
#include <vector>

#include "fleet/faults.hh"
#include "fleet/policy.hh"
#include "sim/driver.hh"
#include "sim/observers.hh"

namespace duplex
{

/** Arrival-rate-driven autoscaling knobs. */
struct ScaleSpec
{
    bool enabled = false;

    int minInstances = 1;
    int maxInstances = 8;

    /** Spin up when observed QPS exceeds this per instance. */
    double upQpsPerInstance = 4.0;

    /** Drain an instance when observed QPS falls below this. */
    double downQpsPerInstance = 1.0;

    /** Sliding window the arrival rate is observed over. */
    double windowSec = 5.0;

    /** Minimum simulated time between scale decisions. */
    double cooldownSec = 10.0;

    /**
     * Availability-aware mode: both scale thresholds act on the
     * fleet's EFFECTIVE capacity — accepting x (1 - observed
     * unavailability) — instead of the raw accepting count, so a
     * fleet losing an MTTR/MTBF share of its instance-time to
     * crashes provisions that share as spare headroom instead of
     * queueing retries. Observed unavailability is the downtime
     * fraction accrued so far (open intervals included), a
     * deterministic function of the run; the mode is inert without
     * fault injection (unavailability is exactly 0).
     */
    bool availabilityAware = false;
};

/** One fleet-scale run. */
struct FleetConfig
{
    /** Per-instance run configuration (system, workload, limits).
     *  Instance i gets seed sim.seed + i for its RNG stream. */
    SimConfig sim;

    /** Instances at start (scaling may grow/shrink within
     *  [minInstances, maxInstances] afterwards). */
    int instances = 1;

    /** Routing-policy registry id (fleet/policy.hh). */
    std::string policy = "round-robin";

    ScaleSpec scaling;

    /** Fault schedule; default-constructed = disabled (the
     *  bit-identical-to-the-fault-free-fleet contract). */
    FaultSpec faults;

    /** How crashed-out requests flow back through the router. */
    RetrySpec retry;
};

/** One autoscaling decision, surfaced through FleetObserver. */
struct ScaleEvent
{
    enum class Kind
    {
        Up,    //!< fresh instance provisioned
        Drain, //!< instance stopped accepting, finishing work
        Retire //!< drained instance fully idle and torn down
    };

    Kind kind = Kind::Up;
    PicoSec time = 0;
    int instance = -1;
    double observedQps = 0.0;
    int acceptingAfter = 0; //!< accepting instances after the event
};

/**
 * Availability accounting of one failure domain (rack/zone, as
 * FaultSpec's domain map stripes the fleet). Two measures:
 * `availability` is time-based (downtime share of the run window),
 * `served()` is request-weighted (the fraction of requests routed
 * into the domain that were not crashed out of it) — the measure a
 * domain-spread router actually improves, since balancing in-flight
 * work across domains bounds what one correlated crash can take.
 */
struct DomainAvailability
{
    int domain = -1;
    int instances = 0; //!< instances the map places in the domain
    int crashes = 0;   //!< crashes applied to the domain's instances

    std::int64_t routed = 0; //!< requests routed into the domain
    std::int64_t lost = 0;   //!< requests crashed out of the domain

    /** Downtime summed over the domain's instances. */
    PicoSec downtime = 0;

    /** Time-based: 1 - downtime / (makespan x instances). */
    double availability = 1.0;

    /** Request-weighted service availability. */
    double served() const
    {
        return routed > 0
                   ? 1.0 - static_cast<double>(lost) /
                               static_cast<double>(routed)
                   : 1.0;
    }
};

/** The fleet-wide outcome: per-instance results folded together. */
struct FleetResult
{
    /** Latency samples merged across instances (SampleStats::merge);
     *  elapsed is the fleet makespan (max instance clock). */
    ServingMetrics metrics;

    /** Time/energy totals summed across instances. */
    StageResult totals;

    std::int64_t generatedTokens = 0;
    std::int64_t requestsRouted = 0;
    std::int64_t requestsRetired = 0;

    int peakBatch = 0;     //!< largest batch on any instance
    int peakInstances = 0; //!< most instances alive at once
    int scaleUps = 0;
    int scaleDowns = 0;

    // --- availability accounting (all zero in fault-free runs) --

    int crashes = 0;        //!< fail-stop faults applied
    int degradeWindows = 0; //!< straggler windows applied
    int drains = 0;         //!< proactive drains applied

    /** Queued requests a proactive drain re-routed (no work lost,
     *  no retry budget consumed — they had never been admitted). */
    std::int64_t requestsMigrated = 0;

    /** Evictions: one request crashed out twice counts twice. */
    std::int64_t requestsLost = 0;

    /** Generated tokens thrown away with evicted requests — work
     *  the fleet did and then lost (retries redo it from prefill). */
    std::int64_t lostWorkTokens = 0;

    std::int64_t retriesScheduled = 0;

    /** Requests that exhausted RetrySpec::maxAttempts and left the
     *  system unserved. In a run that drains fully,
     *  requestsRetired + requestsDropped == workload requests. */
    std::int64_t requestsDropped = 0;

    /** Instance-time spent crashed out, summed over instances. */
    PicoSec totalDowntime = 0;

    /** Applied fault/rejoin timeline, in application order;
     *  `at` holds the effective (stage-boundary) strike time. */
    std::vector<FaultEvent> faultEvents;

    /**
     * Fraction of instance-time the fleet was up:
     * 1 - totalDowntime / (makespan x instances ever provisioned).
     * 1.0 for an empty or fault-free run.
     */
    double availability() const
    {
        if (metrics.elapsed <= 0 || perInstance.empty())
            return 1.0;
        const double denom =
            static_cast<double>(metrics.elapsed) *
            static_cast<double>(perInstance.size());
        const double frac =
            static_cast<double>(totalDowntime) / denom;
        return frac >= 1.0 ? 0.0 : 1.0 - frac;
    }

    /**
     * KV prefix-cache counters summed across instances (each
     * instance owns an independent pool — src/kvcache/); all-zero
     * when the cache was disabled. The fleet-wide hit rate is what
     * separates session-affinity routing (one session's turns keep
     * landing on the instance holding their prefix) from
     * load-only policies that scatter them.
     */
    PrefixCacheMetrics prefixCache;

    /** Final per-instance results, in instance-id order (includes
     *  instances retired mid-run). */
    std::vector<SimResult> perInstance;

    /** Downtime per instance, parallel to perInstance (all zero in
     *  fault-free runs). */
    std::vector<PicoSec> perInstanceDowntime;

    /** Per-domain availability, in domain-id order; empty unless
     *  the fault spec maps instances into failure domains. */
    std::vector<DomainAvailability> perDomain;

    /**
     * Worst request-weighted service availability over the domains
     * (min of DomainAvailability::served()); 1.0 without a domain
     * map. The headline metric of the bench_faults domains x policy
     * sweep — domain-spread routing exists to raise it.
     */
    double worstDomainAvailability() const
    {
        double worst = 1.0;
        for (const DomainAvailability &d : perDomain)
            if (d.served() < worst)
                worst = d.served();
        return worst;
    }

    std::vector<ScaleEvent> scaleEvents;
};

/**
 * Fleet-level callbacks, the FleetObserver extension of the
 * SimObserver idea: per-stage and per-retire events carry the
 * instance id, and scale events report autoscaling decisions.
 * Ordering mirrors the engine contract per instance; events from
 * different instances interleave in simulated-time order (the
 * min-clock stepping discipline).
 */
class FleetObserver
{
  public:
    virtual ~FleetObserver() = default;

    virtual void onFleetBegin(const FleetConfig &config)
    {
        (void)config;
    }

    virtual void onInstanceUp(int instance, PicoSec now)
    {
        (void)instance;
        (void)now;
    }

    virtual void onRequestRouted(int instance,
                                 const Request &request, PicoSec now)
    {
        (void)instance;
        (void)request;
        (void)now;
    }

    virtual void onStage(int instance, const StageObservation &obs)
    {
        (void)instance;
        (void)obs;
    }

    virtual void onRequestRetired(int instance,
                                  const Request &request,
                                  PicoSec now)
    {
        (void)instance;
        (void)request;
        (void)now;
    }

    virtual void onScaleEvent(const ScaleEvent &event)
    {
        (void)event;
    }

    /**
     * A fault struck @p instance (or it rejoined — event.kind says
     * which). @p now is the effective simulated time: the scheduled
     * strike aligned forward to the stage boundary when the
     * instance's clock had already run past it.
     */
    virtual void onFault(int instance, const FaultEvent &event,
                         PicoSec now)
    {
        (void)instance;
        (void)event;
        (void)now;
    }

    /**
     * @p request crashed out of @p instance. dropped=false: its
     * @p attempt-th re-route enters the router at simulated time
     * @p at (RetrySpec backoff applied). dropped=true: the retry
     * budget is exhausted and the request leaves the system,
     * counted in FleetResult::requestsDropped.
     */
    virtual void onRetry(int instance, const Request &request,
                         int attempt, bool dropped, PicoSec at)
    {
        (void)instance;
        (void)request;
        (void)attempt;
        (void)dropped;
        (void)at;
    }

    virtual void onFleetEnd(const FleetResult &result)
    {
        (void)result;
    }
};

/**
 * Runs one fleet: construct over a FleetConfig, attach observers,
 * run() once. Deterministic by construction — routing is a pure
 * function of arrival order and instance state, instances step in
 * min-clock order, and every RNG stream is seeded from the config.
 */
class FleetDriver
{
  public:
    explicit FleetDriver(FleetConfig config);
    ~FleetDriver();

    FleetDriver(const FleetDriver &) = delete;
    FleetDriver &operator=(const FleetDriver &) = delete;

    const FleetConfig &config() const { return config_; }

    /** Attach a non-owning observer; call before run(). */
    void addObserver(FleetObserver *observer);

    /** Execute the fleet run; call exactly once. */
    FleetResult run();

  private:
    enum class Phase;
    struct Instance;

    /** Per-instance SimObserver shim (fleet.cc); reaches back into
     *  shared_ to deliver retirement feedback. */
    friend class InstanceObserver;

    FleetConfig config_;
    std::vector<FleetObserver *> observers_;
    std::vector<std::unique_ptr<Instance>> instances_;
    std::unique_ptr<RoutingPolicy> policy_;
    bool ran_ = false;

    /** The shared stream's admission discipline, mirrored by every
     *  instance's push-fed queue. Set before the first spawn. */
    bool closedLoop_ = true;

    /**
     * run()'s shared arrival queue, while run() is live: the
     * retirement-feedback channel. Every instance retirement is
     * forwarded here so a session workload (workload/source.hh) can
     * release the session's next turn into the shared stream — a
     * no-op for every source without retirement feedback.
     */
    ArrivalQueue *shared_ = nullptr;

    /** The run's outcome, accumulated as the run goes: counters,
     *  timelines and per-domain books are written here directly. */
    FleetResult result_;

    // --- autoscaling state -------------------------------------
    std::deque<PicoSec> arrivalWindow_;
    PicoSec lastScaleTime_ = 0;

    // --- fault-injection state ---------------------------------
    bool faultsEnabled_ = false;

    /** A crashed-out or migrated request waiting to be routed. */
    struct PendingRetry
    {
        std::int64_t seq = 0; //!< FIFO tiebreak among equal times
        Request req;          //!< routable from req.arrival on

        /** Heap order: std::greater makes the heap a min-heap on
         *  (arrival, seq). */
        bool operator>(const PendingRetry &o) const
        {
            return req.arrival > o.req.arrival ||
                   (req.arrival == o.req.arrival && seq > o.seq);
        }
    };

    /** Min-heap on (arrival, seq), kept by pushRetry/popRetry;
     *  front() is the earliest. */
    std::vector<PendingRetry> retries_;
    std::int64_t retrySeq_ = 0;

    /** One correlated-crash timeline per failure domain (empty
     *  without a domain map or with faults disabled). */
    std::vector<DomainFaultPlan> domainPlans_;

    /** Instances for which the Instance predicate @p is holds. */
    int count(bool (Instance::*is)() const) const;
    std::vector<InstanceStatus> snapshot() const;
    double observedQps(PicoSec now);
    double observedUnavailability(PicoSec now) const;

    // Lifecycle transitions (the state machine is documented at
    // FleetDriver::Phase in fleet.cc).
    Instance &spawn(PicoSec now);
    void maybeScale(PicoSec now);
    void retire(Instance &inst);
    void crash(Instance &inst, const FaultEvent &event);
    void degrade(Instance &inst, const FaultEvent &event);
    void faultDrain(Instance &inst, const FaultEvent &event,
                    PicoSec now);
    void closeWindow(Instance &inst);
    void rejoin(Instance &inst, PicoSec at);
    bool advanceToEarliestTransition();

    bool serviceFaults(PicoSec at);
    bool serviceFaults(Instance &inst, PicoSec horizon);
    void serviceDomainFaults(PicoSec horizon);
    void closeDowntime(Instance &inst, PicoSec end);
    void recordFault(FaultEvent event, int instance, PicoSec at);
    void recordScale(const ScaleEvent &event);
    void scheduleRetry(Request request, int instance, PicoSec now);
    void pushRetry(Request request);
    Request popRetry();
};

/**
 * Fleet-wide per-request SLO attainment and goodput: the
 * SloAttainment observer (sim/observers.hh) fed from every
 * instance's retirements — the headline metric bench_fleet judges
 * routing policies by.
 */
class FleetSloAttainment : public FleetObserver
{
  public:
    explicit FleetSloAttainment(SloSpec slo = {}) : slo_(slo) {}

    void onRequestRetired(int instance, const Request &request,
                          PicoSec now) override
    {
        (void)instance;
        slo_.onRequestRetired(request, now);
    }

    const SloAttainment &attainment() const { return slo_; }

  private:
    SloAttainment slo_;
};

/**
 * Fleet-wide warm/cold request split under a KV prefix cache: the
 * PrefixCacheStats observer (sim/observers.hh) fed from every
 * instance's retirements. The fleet-level TTFT gap it reports is
 * the benefit session-affinity routing is judged by.
 */
class FleetPrefixCacheStats : public FleetObserver
{
  public:
    void onRequestRetired(int instance, const Request &request,
                          PicoSec now) override
    {
        (void)instance;
        stats_.onRequestRetired(request, now);
    }

    const PrefixCacheStats &stats() const { return stats_; }

  private:
    PrefixCacheStats stats_;
};

/**
 * Per-instance utilization folded the way GroupUtilization folds
 * device groups: stages run, busy time, tokens and retirements per
 * instance, for quickstart's fleet breakdown table.
 */
class FleetUtilization : public FleetObserver
{
  public:
    struct InstanceStats
    {
        int id = -1;
        std::int64_t stages = 0;
        PicoSec busyTime = 0;
        std::int64_t routed = 0;
        std::int64_t retired = 0;
    };

    void onRequestRouted(int instance, const Request &request,
                         PicoSec now) override;
    void onStage(int instance, const StageObservation &obs) override;
    void onRequestRetired(int instance, const Request &request,
                          PicoSec now) override;

    /** Per-instance stats, in instance-id order. */
    const std::vector<InstanceStats> &instances() const
    {
        return stats_;
    }

  private:
    std::vector<InstanceStats> stats_;

    InstanceStats &at(int instance);
};

} // namespace duplex

#endif // DUPLEX_FLEET_FLEET_HH
