#include "fleet/fleet.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>

#include "common/log.hh"
#include "sim/registry.hh"
#include "workload/registry.hh"

namespace duplex
{

/**
 * Forwards one instance's engine callbacks to the fleet observers,
 * tagged with the instance id, and counts retirements. begin/end
 * hooks are fleet-level (onFleetBegin/onFleetEnd), so the
 * SimObserver ones stay unused.
 */
class InstanceObserver : public SimObserver
{
  public:
    InstanceObserver(FleetDriver &fleet,
                     const std::vector<FleetObserver *> &observers,
                     int instance)
        : fleet_(fleet), observers_(observers), instance_(instance)
    {
    }

    void onStage(const StageObservation &obs) override
    {
        for (FleetObserver *o : observers_)
            o->onStage(instance_, obs);
    }

    void onRequestRetired(const Request &request,
                          PicoSec now) override
    {
        ++retired_;
        for (FleetObserver *o : observers_)
            o->onRequestRetired(instance_, request, now);
        // Retirement feedback into the shared stream, after the
        // observers (mirroring the engine loop's ordering): a
        // session workload releases its next turn here; a no-op
        // for every other source.
        if (fleet_.shared_ != nullptr)
            fleet_.shared_->notifyRetired(request, now);
    }

    std::int64_t retired() const { return retired_; }

  private:
    FleetDriver &fleet_;
    const std::vector<FleetObserver *> &observers_;
    int instance_;
    std::int64_t retired_ = 0;
};

/**
 * An instance's lifecycle: one state machine. Each transition is one
 * FleetDriver method, which records its FaultEvent or ScaleEvent:
 *
 *   Serving      --crash-->       Down          --rejoin--> Serving
 *   Serving      --faultDrain-->  FaultDrained  --closeWindow--> Serving
 *   FaultDrained --crash-->       Down
 *   Serving, FaultDrained --maybeScale (drain)--> Retiring
 *   Down         --maybeScale (drain)-->  RetiringDown
 *   Retiring     --crash-->       RetiringDown  --rejoin--> Retiring
 *   Retiring, RetiringDown --retire (once idle)--> Retired
 *
 * A degrade window (Instance::degradeEnd) runs alongside any live
 * state: it scales stage times and makes the instance report
 * Degraded until closeWindow or a crash ends it. A heavy one calls
 * faultDrain, which migrates the queue whatever the state but only
 * moves a Serving instance to FaultDrained.
 */
enum class FleetDriver::Phase
{
    Serving,      //!< routable
    FaultDrained, //!< heavy straggler: admits nothing until its
                  //!< degrade window closes
    Down,         //!< crashed, awaiting repair at rejoinAt
    Retiring,     //!< scale-drained: finishes its work, then retires
    RetiringDown, //!< scale-drained and crashed
    Retired       //!< torn down (terminal)
};

/** One serving instance: system + steppable loop, its lifecycle
 *  state, and router-side accounting of routed-but-unadmitted KV
 *  commitments. */
struct FleetDriver::Instance
{
    int id = -1;
    Phase phase = Phase::Serving;

    // --- fault state (inert unless the fleet injects faults) ---
    PicoSec downSince = -1;  //!< when the open downtime began
    PicoSec rejoinAt = -1;   //!< repair time while down; -1 = none
    PicoSec degradeEnd = -1; //!< straggler window close; -1 = none
    PicoSec downtime = 0;    //!< closed downtime accrued so far
    FaultPlan plan;          //!< this instance's fault timeline

    /** Failure domain the fault topology places the instance in;
     *  -1 without a domain map. */
    int domain = -1;

    /** Correlated domain crashes fanned out to this instance but
     *  not yet due at its clock (time-ordered). */
    std::deque<FaultEvent> domainPending;

    std::unique_ptr<ServingSystem> system;
    std::unique_ptr<InstanceObserver> observer;
    std::unique_ptr<DriverLoop> loop;

    /**
     * Lifetime KV (inputLen + outputLen) of each routed request the
     * batcher has not yet admitted, in routing order. Admission is
     * FIFO, so after each step the entries whose requests were
     * admitted are exactly the front (queue length delta) ones.
     */
    std::deque<std::int64_t> queuedKv;
    std::int64_t queuedKvSum = 0;

    /** nextDue() as of the last FleetDriver::refileFaults. */
    PicoSec dueAt = -1;

    /** Listed in FleetDriver::overdue_. */
    bool overdue = false;

    /** The router may hand it requests. */
    bool routable() const { return phase == Phase::Serving; }

    /** Counts toward the autoscaler's capacity (not scale-drained,
     *  not retired), whatever its fault state. */
    bool accepting() const { return live() && !retiring(); }

    bool retiring() const
    {
        return phase == Phase::Retiring ||
               phase == Phase::RetiringDown;
    }

    bool down() const
    {
        return phase == Phase::Down || phase == Phase::RetiringDown;
    }

    bool live() const { return phase != Phase::Retired; }

    /** Its clock runs: live and not crashed out. */
    bool steppable() const { return live() && !down(); }

    InstanceHealth health() const
    {
        return degradeEnd >= 0 ? InstanceHealth::Degraded
                               : InstanceHealth::Healthy;
    }

    /**
     * When a scheduled transition makes this (accepting) instance
     * routable again: its repair or its drain-window close; -1 when
     * none is scheduled.
     */
    PicoSec routableAt() const
    {
        if (phase == Phase::Down)
            return rejoinAt;
        if (phase == Phase::FaultDrained)
            return degradeEnd;
        return -1;
    }

    /**
     * The earliest scheduled fault transition — a rejoin, a window
     * close, the plan's next fault or a fanned-out domain crash —
     * the first time serviceFaults would act on; -1 when none.
     */
    PicoSec nextDue() const
    {
        PicoSec next = -1;
        const PicoSec fault = plan.pending() ? plan.nextAt() : -1;
        const PicoSec domain =
            domainPending.empty() ? -1 : domainPending.front().at;
        for (PicoSec t : {rejoinAt, degradeEnd, fault, domain})
            if (t >= 0 && (next < 0 || t < next))
                next = t;
        return next;
    }

    /** Drop the front entries the batcher admitted since last sync. */
    void syncQueuedKv()
    {
        while (queuedKv.size() > loop->queueDepth()) {
            queuedKvSum -= queuedKv.front();
            queuedKv.pop_front();
        }
    }
};

FleetDriver::FleetDriver(FleetConfig config)
    : config_(std::move(config))
{
    fatalIf(config_.instances < 1,
            "FleetDriver: need at least one instance");
    fatalIf(config_.sim.maxStages < 1,
            "FleetDriver: stage cap must be >= 1, got " +
                std::to_string(config_.sim.maxStages));
    // Without autoscaling the ids are 0..instances-1 for the whole
    // run, so an event aimed past them could never fire.
    if (config_.scaling.enabled)
        return;
    for (const FaultEvent &e : config_.faults.events) {
        if (e.domain >= 0 || e.instance < config_.instances)
            continue;
        char at[32];
        std::snprintf(at, sizeof(at), "%g", psToSec(e.at));
        fatal(std::string("FleetDriver: fault event ") +
              faultKindName(e.kind) + "@" + at + ":" +
              std::to_string(e.instance) +
              " targets an instance the fleet never has (ids 0.." +
              std::to_string(config_.instances - 1) + ")");
    }
}

FleetDriver::~FleetDriver() = default;

void
FleetDriver::addObserver(FleetObserver *observer)
{
    panicIf(observer == nullptr, "null FleetObserver attached");
    observers_.push_back(observer);
}

int
FleetDriver::count(bool (Instance::*is)() const) const
{
    return static_cast<int>(std::count_if(
        instances_.begin(), instances_.end(),
        [is](const auto &inst) { return ((*inst).*is)(); }));
}

const std::vector<InstanceStatus> &
FleetDriver::snapshot()
{
    if (!indexed_ || routingStale_) {
        routing_.clear();
        routingSlot_.assign(instances_.size(), -1);
        for (const auto &inst : instances_) {
            // Only routable instances: down, draining and retired
            // ones are ejected outright — the policy never sees one.
            if (!inst->routable())
                continue;
            routingSlot_[static_cast<std::size_t>(inst->id)] =
                static_cast<int>(routing_.size());
            InstanceStatus &s = routing_.emplace_back();
            s.id = inst->id;
            s.domain = inst->domain;
            s.maxKvTokens = inst->loop->maxKvTokens();
            refreshStatus(*inst);
        }
        routingStale_ = false;
    }
    // Under the lazy march every routable clock is at least the
    // idle floor (busy ones already are), so this is clockOf().
    if (lazyIdle_)
        for (InstanceStatus &s : routing_)
            s.clock = std::max(s.clock, idleFloor_);
    return routing_;
}

/** Rewrite @p inst's routing-snapshot entry, if it has one. */
void
FleetDriver::refreshStatus(const Instance &inst)
{
    const auto id = static_cast<std::size_t>(inst.id);
    if (id >= routingSlot_.size() || routingSlot_[id] < 0)
        return;
    InstanceStatus &s = routing_[static_cast<std::size_t>(routingSlot_[id])];
    s.health = inst.health();
    s.queueDepth = inst.loop->queueDepth();
    s.activeCount = inst.loop->activeCount();
    s.kvHeadroom = s.maxKvTokens - inst.loop->activeLifetimeKv() -
                   inst.queuedKvSum;
    s.clock = clockOf(inst);
}

FleetDriver::Instance &
FleetDriver::spawn(PicoSec now)
{
    auto inst = std::make_unique<Instance>();
    inst->id = static_cast<int>(instances_.size());
    SystemOptions opts;
    // Independent RNG stream per instance; instance 0 matches the
    // bare engine's seed, the golden-equivalence anchor.
    opts.seed = config_.sim.seed +
                static_cast<std::uint64_t>(inst->id);
    inst->system =
        makeSystem(config_.sim.systemName, config_.sim.model, opts);
    fatalIf(inst->system->hasCustomLoop(),
            "FleetDriver: system '" + config_.sim.systemName +
                "' runs its own driver loop, which a fleet "
                "instance cannot step");
    inst->observer = std::make_unique<InstanceObserver>(
        *this, observers_, inst->id);
    // Push-fed arrivals: the router delivers requests as their
    // arrival times come due; the loop's clock starts at the
    // provisioning time (0 for the initial fleet).
    inst->loop = std::make_unique<DriverLoop>(
        config_.sim, *inst->system, *inst->observer,
        ArrivalQueue(closedLoop_), now);
    // The instance's fault timeline, on its dedicated RNG stream;
    // default-constructed (inert) when faults are disabled so the
    // fault-free fleet never touches the subsystem.
    if (faultsEnabled_)
        inst->plan =
            FaultPlan(config_.faults, inst->id, config_.sim.seed);
    // The domain map is topology, not a fault process: filled
    // whenever domains are configured so domain-aware routing works
    // even before any fault fires.
    if (config_.faults.hasDomains())
        inst->domain = config_.faults.domainFor(inst->id);
    Instance &ref = *inst;
    instances_.push_back(std::move(inst));
    countPhase(ref.phase, +1);
    routingStale_ = true;
    refileFaults(ref);
    for (FleetObserver *o : observers_)
        o->onInstanceUp(ref.id, now);
    return ref;
}

double
FleetDriver::observedQps(PicoSec now)
{
    const PicoSec window = secToPs(config_.scaling.windowSec);
    while (!arrivalWindow_.empty() &&
           arrivalWindow_.front() + window < now)
        arrivalWindow_.pop_front();
    return static_cast<double>(arrivalWindow_.size()) /
           config_.scaling.windowSec;
}

double
FleetDriver::observedUnavailability(PicoSec now) const
{
    if (now <= 0 || instances_.empty())
        return 0.0;
    PicoSec down = 0;
    for (const auto &inst : instances_) {
        down += inst->downtime;
        // Open downtime interval: count what has accrued so far.
        if (inst->down() && inst->downSince < now)
            down += now - inst->downSince;
    }
    const double frac =
        static_cast<double>(down) /
        (static_cast<double>(now) *
         static_cast<double>(instances_.size()));
    // Cap so one long outage cannot demand unbounded spare
    // capacity (effective capacity never drops below 10%).
    return std::min(frac, 0.9);
}

void
FleetDriver::maybeScale(PicoSec now)
{
    const ScaleSpec &spec = config_.scaling;
    const double qps = observedQps(now);
    if (now - lastScaleTime_ < secToPs(spec.cooldownSec))
        return;
    const int accepting = accepting_;
    // Availability-aware mode: thresholds act on effective capacity
    // accepting x (1 - observed unavailability) — the MTTR/MTBF
    // share the fleet is losing gets provisioned as spare headroom.
    // Exactly `accepting` when faults are off (unavailability 0),
    // so the mode is inert on a fault-free fleet.
    double capacity = static_cast<double>(accepting);
    if (spec.availabilityAware && faultsEnabled_)
        capacity = static_cast<double>(accepting) *
                   (1.0 - observedUnavailability(now));
    ScaleEvent event;
    event.time = now;
    event.observedQps = qps;
    if (qps > spec.upQpsPerInstance * capacity &&
        accepting < spec.maxInstances) {
        Instance &inst = spawn(now);
        event.kind = ScaleEvent::Kind::Up;
        event.instance = inst.id;
        event.acceptingAfter = accepting + 1;
        ++result_.scaleUps;
    } else if (qps < spec.downQpsPerInstance * capacity &&
               accepting > spec.minInstances) {
        // Drain the highest-id accepting instance: stop routing to
        // it; it finishes its queued and active requests, then
        // retires (the drain-retires-nothing-in-flight guarantee).
        Instance *victim = nullptr;
        for (const auto &inst : instances_)
            if (inst->accepting())
                victim = inst.get();
        // Never drain the last routable instance while the rest are
        // down or fault-drained: the request in hand would have
        // nowhere to go.
        if (victim->routable() && routable_ == 1)
            return;
        setPhase(*victim, victim->down() ? Phase::RetiringDown
                                         : Phase::Retiring);
        event.kind = ScaleEvent::Kind::Drain;
        event.instance = victim->id;
        event.acceptingAfter = accepting - 1;
        ++result_.scaleDowns;
    } else {
        return;
    }
    lastScaleTime_ = now;
    recordScale(event);
}

void
FleetDriver::retire(Instance &inst)
{
    panicIf(!inst.loop->idle(),
            "retiring a fleet instance with in-flight requests");
    // A draining instance can crash out (its work already evicted
    // and re-routed); retirement closes the downtime interval.
    settleIdle(inst);
    if (inst.down())
        closeDowntime(inst, inst.loop->now());
    setPhase(inst, Phase::Retired);
    refileFaults(inst);
    // The furthest live clock may have left with the instance.
    if (indexed_ && faultsEnabled_ &&
        inst.loop->now() == latestClock_) {
        latestClock_ = 0;
        for (const auto &other : instances_)
            if (other->live())
                latestClock_ =
                    std::max(latestClock_, other->loop->now());
    }
    ScaleEvent event;
    event.kind = ScaleEvent::Kind::Retire;
    event.time = inst.loop->now();
    event.instance = inst.id;
    event.acceptingAfter = accepting_;
    recordScale(event);
}

/**
 * Fire everything due on @p inst up to simulated time @p horizon,
 * in chronological order: a pending rejoin, a degrade-window close
 * and the scheduled faults interleave (a rejoin can be followed by
 * the next crash in the same call). Fault events that strike while
 * the instance is down are consumed and dropped — a dead machine
 * cannot fail twice. Returns true when anything changed, so callers
 * re-evaluate routing state (a crash changes who is busy and may
 * have queued retries).
 */
bool
FleetDriver::serviceFaults(Instance &inst, PicoSec horizon)
{
    const auto due = [horizon](PicoSec t) {
        return t >= 0 && t <= horizon ? t : -1;
    };
    bool fired = false;
    for (;;) {
        const PicoSec rejoinAt = due(inst.rejoinAt);
        const PicoSec windowEnd = due(inst.degradeEnd);
        const PicoSec fault =
            inst.plan.pending() ? due(inst.plan.nextAt()) : -1;
        const PicoSec domain = inst.domainPending.empty()
                                   ? -1
                                   : due(inst.domainPending.front().at);
        PicoSec next = -1;
        for (PicoSec t : {rejoinAt, windowEnd, fault, domain})
            if (t >= 0 && (next < 0 || t < next))
                next = t;
        if (next < 0)
            return fired;
        fired = true;
        if (next == rejoinAt) {
            rejoin(inst, rejoinAt);
        } else if (next == windowEnd) {
            closeWindow(inst);
        } else if (next == fault) {
            const FaultEvent e = inst.plan.pop();
            if (inst.down())
                continue;
            if (e.kind == FaultKind::Crash)
                crash(inst, e);
            else
                degrade(inst, e);
        } else {
            // A correlated domain crash fanned out to this member.
            const FaultEvent e = inst.domainPending.front();
            inst.domainPending.pop_front();
            if (!inst.down())
                crash(inst, e);
        }
    }
}

/**
 * Fire every fault due by routing time @p at fleet-wide: domain
 * plans pump first (their draws are interleaving-free, so the
 * furthest clock is a safe horizon), then each live member applies
 * what is due by @p at or its own clock, whichever is later — faults
 * strike at stage boundaries — in id order. Only the members with
 * something due are visited: those whose next due time is at most
 * @p at (faultDue_) and those it is overdue on at their own clock
 * (overdue_, filed by reindex). Servicing one member never changes
 * what is due on another, so skipping the rest changes nothing.
 * Returns true when anything fired.
 */
bool
FleetDriver::serviceFaults(PicoSec at)
{
    if (!indexed_)
        return serviceFaultsScan(at);
    if (!domainPlans_.empty())
        serviceDomainFaults(std::max(at, latestClock_));
    std::vector<int> &due = dueScratch_;
    due.clear();
    for (int id : overdue_) {
        instances_[static_cast<std::size_t>(id)]->overdue = false;
        due.push_back(id);
    }
    overdue_.clear();
    while (!faultDue_.empty() && faultDue_.topKey() <= at)
        due.push_back(faultDue_.pop());
    std::sort(due.begin(), due.end());
    due.erase(std::unique(due.begin(), due.end()), due.end());
    bool changed = false;
    for (int id : due) {
        Instance &inst = *instances_[static_cast<std::size_t>(id)];
        if (inst.live() &&
            serviceFaults(inst, std::max(at, inst.loop->now())))
            changed = true;
        refileFaults(inst);
    }
    return changed;
}

/** serviceFaults(at) by a pass over every instance. */
bool
FleetDriver::serviceFaultsScan(PicoSec at)
{
    if (!domainPlans_.empty()) {
        PicoSec horizon = at;
        for (const auto &inst : instances_)
            if (inst->live())
                horizon = std::max(horizon, inst->loop->now());
        serviceDomainFaults(horizon);
    }
    bool changed = false;
    for (auto &inst : instances_)
        if (inst->live() &&
            serviceFaults(*inst, std::max(at, inst->loop->now())))
            changed = true;
    return changed;
}

/**
 * Pop every domain crash due by @p horizon from the per-domain
 * plans and fan it out to the domain's live members; each member
 * applies it at its own stage boundary through serviceFaults. Draws
 * happen here — once, on the domain's dedicated stream — so they
 * stay a pure function of (spec, domain, seed) no matter how the
 * member clocks interleave.
 */
void
FleetDriver::serviceDomainFaults(PicoSec horizon)
{
    if (nextDomainAt_ < 0 || horizon < nextDomainAt_)
        return;
    nextDomainAt_ = -1;
    for (FaultPlan &plan : domainPlans_) {
        while (plan.pending() && plan.nextAt() <= horizon) {
            const FaultEvent e = plan.pop();
            for (auto &inst : instances_)
                if (inst->live() && inst->domain == e.domain) {
                    inst->domainPending.push_back(e);
                    refileFaults(*inst);
                }
        }
        if (plan.pending() &&
            (nextDomainAt_ < 0 || plan.nextAt() < nextDomainAt_))
            nextDomainAt_ = plan.nextAt();
    }
}

void
FleetDriver::crash(Instance &inst, const FaultEvent &event)
{
    // Fail-stop at the stage boundary: when a stage ran past the
    // scheduled strike, the crash takes effect at the instance's
    // clock (a stage is atomic; nothing fails mid-matmul).
    const PicoSec now = std::max(event.at, inst.loop->now());
    std::vector<Request> lost;
    inst.loop->evictAll(lost);
    // The KV prefix cache died with the instance's HBM: flush it
    // (ledger-closed — the bytes count as evictions) so post-rejoin
    // lookups all miss instead of reporting phantom warm hits.
    inst.loop->flushPrefixCache();
    inst.queuedKv.clear();
    inst.queuedKvSum = 0;
    // A crash supersedes any straggler window in progress — and the
    // proactive drain that window may have triggered.
    if (inst.degradeEnd >= 0) {
        inst.loop->setTimeScale(1.0);
        inst.degradeEnd = -1;
    }
    setPhase(inst,
             inst.retiring() ? Phase::RetiringDown : Phase::Down);
    inst.downSince = now;
    inst.rejoinAt = event.duration < 0
                        ? -1
                        : std::max(now, event.at + event.duration);
    ++result_.crashes;
    if (inst.domain >= 0)
        ++result_.perDomain[static_cast<std::size_t>(inst.domain)]
              .crashes;
    recordFault(event, inst.id, now);
    for (Request &r : lost)
        scheduleRetry(std::move(r), inst.id, now);
}

void
FleetDriver::degrade(Instance &inst, const FaultEvent &event)
{
    const PicoSec now = std::max(event.at, inst.loop->now());
    inst.loop->setTimeScale(event.factor);
    // The window closes at its scheduled end even when a stage ran
    // past the start; a window fully consumed mid-stage is cleared
    // by the next serviceFaults pass without scaling anything.
    inst.degradeEnd = event.at + event.duration;
    ++result_.degradeWindows;
    recordFault(event, inst.id, now);
    // Proactive drain: a straggler this heavy is served around, not
    // through — stop admitting and hand the queued requests back to
    // the router instead of waiting for a crash to retry them.
    if (config_.faults.drainFactorThreshold > 0.0 &&
        event.factor >= config_.faults.drainFactorThreshold)
        faultDrain(inst, event, now);
}

void
FleetDriver::faultDrain(Instance &inst, const FaultEvent &event,
                        PicoSec now)
{
    if (inst.phase == Phase::Serving)
        setPhase(inst, Phase::FaultDrained);
    std::vector<Request> queued;
    inst.loop->evictQueued(queued);
    inst.queuedKv.clear();
    inst.queuedKvSum = 0;
    ++result_.drains;
    FaultEvent rec = event;
    rec.kind = FaultKind::Drain;
    recordFault(rec, inst.id, now);
    // Migration, not retry: the queued requests were never
    // admitted, so no work is lost and no retry budget is spent.
    // They re-enter the router through the pending heap at the
    // drain time (original queue order preserved via seq), stamped
    // with that time as their arrival — every per-instance queue
    // requires nondecreasing arrivals, and the router hands them to
    // a *different* instance whose queue may already sit past the
    // original stamp.
    for (Request &r : queued) {
        ++result_.requestsMigrated;
        r.arrival = std::max(now, r.arrival);
        pushRetry(std::move(r));
    }
}

void
FleetDriver::closeWindow(Instance &inst)
{
    inst.loop->setTimeScale(1.0);
    inst.degradeEnd = -1;
    // The window that drove a proactive drain closed: the instance
    // admits again.
    if (inst.phase == Phase::FaultDrained)
        setPhase(inst, Phase::Serving);
}

void
FleetDriver::rejoin(Instance &inst, PicoSec at)
{
    panicIf(!inst.down(), "rejoining an instance that is not down");
    closeDowntime(inst, at);
    setPhase(inst, inst.retiring() ? Phase::Retiring : Phase::Serving);
    // Empty batch, clock resumed at the repair time (no-op when the
    // crash-frozen clock already sits past it).
    inst.loop->advanceTo(at);
    FaultEvent rec;
    rec.kind = FaultKind::Rejoin;
    recordFault(rec, inst.id, at);
}

/**
 * The one rule for a fleet with nothing routable: apply the earliest
 * scheduled transition that makes an accepting instance routable —
 * a repair (rejoin) or a drain-window close. Ties go to the repair,
 * then to the lowest id. A window close fires everything due on the
 * instance by then, and an idle instance's clock moves up to it so
 * it admits AT the close, like a rejoin. Returns false when no such
 * transition is scheduled.
 */
bool
FleetDriver::advanceToEarliestTransition()
{
    Instance *best = nullptr;
    for (const auto &inst : instances_) {
        const PicoSec at = inst->routableAt();
        if (at < 0)
            continue;
        if (best == nullptr || at < best->routableAt() ||
            (at == best->routableAt() && inst->down() &&
             !best->down()))
            best = inst.get();
    }
    if (best == nullptr)
        return false;
    const PicoSec at = best->routableAt();
    if (best->down()) {
        rejoin(*best, at);
    } else {
        serviceFaults(*best, at);
        if (!best->down() && best->loop->idle())
            best->loop->advanceTo(at);
    }
    refileFaults(*best);
    return true;
}

void
FleetDriver::closeDowntime(Instance &inst, PicoSec end)
{
    const PicoSec d = std::max<PicoSec>(0, end - inst.downSince);
    result_.totalDowntime += d;
    inst.downtime += d;
    inst.downSince = -1;
    inst.rejoinAt = -1;
}

/** Record @p event as applied to @p instance at effective time
 *  @p at, and notify the observers. */
void
FleetDriver::recordFault(FaultEvent event, int instance, PicoSec at)
{
    event.instance = instance;
    event.at = at;
    result_.faultEvents.push_back(event);
    for (FleetObserver *o : observers_)
        o->onFault(instance, event, at);
}

void
FleetDriver::recordScale(const ScaleEvent &event)
{
    result_.scaleEvents.push_back(event);
    for (FleetObserver *o : observers_)
        o->onScaleEvent(event);
}

void
FleetDriver::pushRetry(Request request)
{
    retries_.push_back({retrySeq_++, std::move(request)});
    std::push_heap(retries_.begin(), retries_.end(), std::greater<>());
}

Request
FleetDriver::popRetry()
{
    std::pop_heap(retries_.begin(), retries_.end(), std::greater<>());
    Request r = std::move(retries_.back().req);
    retries_.pop_back();
    return r;
}

void
FleetDriver::scheduleRetry(Request request, int instance,
                           PicoSec now)
{
    ++result_.requestsLost;
    result_.lostWorkTokens += request.generated;
    const int dom =
        instances_[static_cast<std::size_t>(instance)]->domain;
    if (dom >= 0)
        ++result_.perDomain[static_cast<std::size_t>(dom)].lost;
    const int attempt = request.retries + 1;
    if (request.retries >= config_.retry.maxAttempts) {
        ++result_.requestsDropped;
        for (FleetObserver *o : observers_)
            o->onRetry(instance, request, attempt, true, now);
        return;
    }
    // The crashed KV is gone (chunked-prefill progress included).
    request.restartFromPrefill();
    request.arrival = now + config_.retry.backoffFor(attempt);
    ++result_.retriesScheduled;
    for (FleetObserver *o : observers_)
        o->onRetry(instance, request, attempt, false,
                   request.arrival);
    pushRetry(std::move(request));
}

void
FleetDriver::countPhase(Phase phase, int delta)
{
    if (phase == Phase::Serving)
        routable_ += delta;
    if (phase == Phase::Serving || phase == Phase::FaultDrained ||
        phase == Phase::Down)
        accepting_ += delta;
    if (phase != Phase::Retired)
        live_ += delta;
}

/** Every phase change goes through here, so the lifecycle counts
 *  and the retiring list cannot drift from the phases. */
void
FleetDriver::setPhase(Instance &inst, Phase phase)
{
    const bool was_retiring = inst.retiring();
    if (inst.routable() != (phase == Phase::Serving))
        routingStale_ = true;
    countPhase(inst.phase, -1);
    inst.phase = phase;
    countPhase(phase, +1);
    if (inst.retiring() && !was_retiring)
        retiring_.insert(std::upper_bound(retiring_.begin(),
                                          retiring_.end(), inst.id),
                         inst.id);
    else if (was_retiring && !inst.retiring())
        retiring_.erase(
            std::find(retiring_.begin(), retiring_.end(), inst.id));
}

/**
 * The instance clock the fleet reasons with. Under the lazy idle
 * march an idle steppable instance stands at the fleet's idle floor
 * even before its loop is moved there (settleIdle).
 */
PicoSec
FleetDriver::clockOf(const Instance &inst) const
{
    const PicoSec now = inst.loop->now();
    if (lazyIdle_ && now < idleFloor_ && inst.steppable() &&
        inst.loop->idle())
        return idleFloor_;
    return now;
}

/** Apply the idle march the lazy floor deferred to @p inst's loop:
 *  the advanceTo the eager march would have made. */
void
FleetDriver::settleIdle(Instance &inst)
{
    const PicoSec now = clockOf(inst);
    if (now == inst.loop->now())
        return;
    inst.loop->advanceTo(now);
    reindex(inst);
}

namespace
{

void
place(IndexedMinHeap &heap, int id, bool in, PicoSec key)
{
    if (in)
        heap.set(id, key);
    else
        heap.erase(id);
}

} // namespace

/**
 * File @p inst in the step index after its clock, its work or its
 * phase changed: O(log N), and a step that leaves the instance busy
 * moves one key.
 */
void
FleetDriver::reindex(Instance &inst)
{
    if (!indexed_)
        return;
    const PicoSec now = inst.loop->now();
    const bool steppable = inst.steppable();
    const bool idle = inst.loop->idle();
    const bool capped = inst.loop->stageCapped();
    // The lazy march relies on it: the gate routes nothing past a
    // busy clock, so no busy instance stands below the idle floor.
    panicIf(lazyIdle_ && steppable && !idle && now < idleFloor_,
            "FleetDriver: busy instance behind the idle floor");
    place(stepOrder_, inst.id, steppable && !idle && !capped, now);
    place(cappedBusy_, inst.id, steppable && !idle && capped, now);
    place(idleClocks_, inst.id, steppable && idle, now);
    if (!routingStale_)
        refreshStatus(inst);
    if (!faultsEnabled_)
        return;
    if (inst.live())
        latestClock_ = std::max(latestClock_, now);
    if (inst.dueAt >= 0 && inst.dueAt <= now && !inst.overdue) {
        inst.overdue = true;
        overdue_.push_back(inst.id);
    }
}

/** reindex, after @p inst's fault schedule may have changed. */
void
FleetDriver::refileFaults(Instance &inst)
{
    if (indexed_ && faultsEnabled_) {
        inst.dueAt = inst.live() ? inst.nextDue() : -1;
        place(faultDue_, inst.id, inst.dueAt >= 0, inst.dueAt);
    }
    reindex(inst);
}

/** Retire the drained instances that went idle, in id order. */
void
FleetDriver::retireIdle()
{
    if (!indexed_) {
        for (auto &inst : instances_)
            if (inst->retiring() && inst->loop->idle())
                retire(*inst);
        return;
    }
    // retire() takes the instance off retiring_.
    for (std::size_t i = 0; i < retiring_.size();) {
        Instance &inst =
            *instances_[static_cast<std::size_t>(retiring_[i])];
        if (inst.loop->idle())
            retire(inst);
        else
            ++i;
    }
}

/** Least clock over busy instances; max() when none is busy. */
PicoSec
FleetDriver::busyMin() const
{
    PicoSec least = std::numeric_limits<PicoSec>::max();
    if (indexed_) {
        if (!stepOrder_.empty())
            least = stepOrder_.topKey();
        if (!cappedBusy_.empty())
            least = std::min(least, cappedBusy_.topKey());
        return least;
    }
    for (const auto &inst : instances_)
        if (inst->steppable() && !inst->loop->idle())
            least = std::min(least, inst->loop->now());
    return least;
}

/** Least clock over steppable instances, idle ones included. */
PicoSec
FleetDriver::earliestClock()
{
    PicoSec least = std::numeric_limits<PicoSec>::max();
    if (!indexed_) {
        for (const auto &inst : instances_)
            if (inst->steppable())
                least = std::min(least, inst->loop->now());
        return least;
    }
    // idleClocks_ is keyed by loop clocks; settle the tops the lazy
    // floor lifts until the top is exact (a settled clock only
    // grows, so every other key stays a lower bound).
    while (!idleClocks_.empty()) {
        Instance &inst =
            *instances_[static_cast<std::size_t>(idleClocks_.top())];
        if (clockOf(inst) == inst.loop->now()) {
            least = idleClocks_.topKey();
            break;
        }
        settleIdle(inst);
    }
    return std::min(least, busyMin());
}

/** The steppable instance with a stage to run that is furthest
 *  behind (lowest id on ties); nullptr when there is none. */
FleetDriver::Instance *
FleetDriver::nextToStep() const
{
    if (indexed_)
        return stepOrder_.empty()
                   ? nullptr
                   : instances_[static_cast<std::size_t>(
                                    stepOrder_.top())]
                         .get();
    Instance *next = nullptr;
    for (const auto &inst : instances_) {
        if (!inst->steppable() || inst->loop->done())
            continue;
        if (next == nullptr || inst->loop->now() < next->loop->now())
            next = inst.get();
    }
    return next;
}

/** A stage-capped instance still holds work (nothing can step). */
bool
FleetDriver::anyCappedWithWork() const
{
    if (indexed_)
        return !cappedBusy_.empty();
    return std::any_of(instances_.begin(), instances_.end(),
                       [](const auto &i) {
                           return i->live() && i->loop->stageCapped() &&
                                  !i->loop->idle();
                       });
}

/**
 * March every idle steppable instance up to @p t (the engine's
 * idleAdvance, fleet-wide). Only idle instances can stand below
 * @p t: the gate routes nothing past a busy clock. The lazy form
 * raises the idle floor in O(1); the eager one moves the idle
 * instances behind @p t, found from the top of idleClocks_.
 */
void
FleetDriver::marchIdle(PicoSec t)
{
    if (!indexed_) {
        for (auto &inst : instances_)
            if (inst->steppable() && inst->loop->idle())
                inst->loop->advanceTo(t);
        return;
    }
    if (lazyIdle_) {
        if (t >= idleFloor_) {
            idleFloor_ = t;
            return;
        }
        // Routed arrivals never go back in time, so this is not
        // expected; if one does, settle every deferred march and
        // continue eagerly, which is exact either way.
        for (auto &inst : instances_)
            settleIdle(*inst);
        lazyIdle_ = false;
    }
    while (!idleClocks_.empty() && idleClocks_.topKey() < t) {
        Instance &inst =
            *instances_[static_cast<std::size_t>(idleClocks_.top())];
        inst.loop->advanceTo(t);
        reindex(inst);
    }
}

/** Hand @p request, routable from @p at, to the policy's pick. */
void
FleetDriver::route(Request request, PicoSec at)
{
    const std::vector<InstanceStatus> &statuses = snapshot();
    panicIf(statuses.empty(),
            "fleet has no accepting instance to route to");
    const int target = policy_->route(request, statuses);
    panicIf(target < 0 ||
                target >= static_cast<int>(instances_.size()) ||
                !instances_[target]->routable(),
            "routing policy '" + config_.policy +
                "' picked an unroutable instance");
    Instance &inst = *instances_[target];
    // The chosen instance admits at the arrival time exactly as the
    // bare engine would.
    settleIdle(inst);
    const std::int64_t kv = request.inputLen + request.outputLen;
    for (FleetObserver *o : observers_)
        o->onRequestRouted(target, request, at);
    inst.loop->pushArrival(std::move(request));
    inst.queuedKv.push_back(kv);
    inst.queuedKvSum += kv;
    if (inst.domain >= 0)
        ++result_.perDomain[static_cast<std::size_t>(inst.domain)]
              .routed;
    ++result_.requestsRouted;
    reindex(inst);
}

/**
 * The stepping loop. Interleaving rule (the determinism contract):
 * an arrival routes once no busy instance is behind it, and the
 * instance furthest behind steps next, lowest id on ties. run()
 * answers each question from the heaps and counts, in O(log N) per
 * step; runReference() answers it by scanning every instance.
 */
void
FleetDriver::stepLoop(ArrivalQueue &shared)
{
    for (;;) {
        // Retire drained instances the moment they go idle, so they
        // stop participating in the min-clock order.
        retireIdle();
        if (!indexed_)
            panicIf(count(&Instance::routable) != routable_ ||
                        count(&Instance::accepting) != accepting_ ||
                        count(&Instance::live) != live_,
                    "FleetDriver: lifecycle counts disagree with "
                    "the phases");

        // Fire faults due at each instance's own clock before any
        // routing or stepping decision reads fleet state — the last
        // step may have carried an instance's clock past a
        // scheduled strike.
        if (faultsEnabled_)
            serviceFaults(0);

        // Route every arrival no BUSY instance is still behind: a
        // busy instance's state at the arrival time is not yet
        // known, so routing must wait for it; an idle instance has
        // nothing to do until the arrival, so its clock simply
        // marches forward (the engine's idleAdvance, applied
        // fleet-wide). Closed loop: arrivals carry no timestamps,
        // so the whole stream routes up front and the queued-KV
        // accounting makes the balancing policies spread it
        // sensibly. Crash retries re-enter here, merged with the
        // shared stream in timestamp order and gated like open-loop
        // arrivals; down instances neither gate routing nor appear
        // in the snapshot.
        for (;;) {
            const bool haveShared = !shared.empty();
            if (!haveShared && retries_.empty())
                break;
            if (faultsEnabled_ && routable_ == 0) {
                fatalIf(!advanceToEarliestTransition(),
                        "fleet: every instance is down or draining "
                        "with no rejoin scheduled and requests still "
                        "pending");
                continue;
            }
            // Retries carry real timestamps even under a closed
            // loop; the timestamp-less closed-loop stream routes
            // first there, open loop merges by earliest time
            // (shared stream wins ties — it was in line first).
            bool fromRetry = !haveShared;
            if (haveShared && !retries_.empty() &&
                !shared.closedLoop())
                fromRetry =
                    retries_.front().req.arrival < shared.front().arrival;
            const bool timed = fromRetry || !shared.closedLoop();
            const PicoSec arrival = fromRetry
                                        ? retries_.front().req.arrival
                                        : shared.front().arrival;
            if (timed && arrival > busyMin())
                break;
            const PicoSec at = timed ? arrival : earliestClock();
            // Fire anything due by the routing time (rejoins
            // included), then re-evaluate: a crash changes who is
            // busy and may have queued earlier retries.
            if (faultsEnabled_ && serviceFaults(at))
                continue;
            // A closed-loop draw is stamped with the routing time.
            Request r = fromRetry ? popRetry() : shared.pop(at);
            // March idle instances up to the arrival so the
            // policy's clock snapshot is consistent.
            if (timed)
                marchIdle(at);
            if (config_.scaling.enabled) {
                arrivalWindow_.push_back(at);
                maybeScale(at);
            }
            route(std::move(r), at);
        }
        result_.peakInstances = std::max(result_.peakInstances, live_);

        if (Instance *next = nextToStep()) {
            next->loop->step();
            next->syncQueuedKv();
            reindex(*next);
            continue;
        }

        if (shared.empty() && retries_.empty())
            break;
        // Nothing can step. A stage-capped instance with work still
        // queued ends the run (engine stage-cap semantics);
        // otherwise all are idle — march them to the next arrival
        // (or pending retry) and route it.
        if (anyCappedWithWork())
            break;
        PicoSec t = std::numeric_limits<PicoSec>::max();
        if (!shared.empty())
            t = shared.front().arrival;
        if (!retries_.empty())
            t = std::min(t, retries_.front().req.arrival);
        marchIdle(t);
    }
}

FleetResult
FleetDriver::run()
{
    return runWith(true);
}

FleetResult
FleetDriver::runReference()
{
    return runWith(false);
}

FleetResult
FleetDriver::runWith(bool indexed)
{
    panicIf(ran_, "FleetDriver::run called twice");
    ran_ = true;
    indexed_ = indexed;

    policy_ = makeRoutingPolicy(config_.policy);
    int initial = config_.instances;
    if (config_.scaling.enabled)
        initial = std::clamp(initial, config_.scaling.minInstances,
                             config_.scaling.maxInstances);

    for (FleetObserver *o : observers_)
        o->onFleetBegin(config_);

    ArrivalQueue shared(
        makeWorkload(config_.sim.workloadIdOrDefault(),
                     config_.sim.workload),
        config_.sim.numRequests);
    // Instance queues mirror the shared stream's discipline (trace
    // and bursty sources are open loop whatever qps says).
    closedLoop_ = shared.closedLoop();
    // Expose the shared queue (a run() local) to the per-instance
    // observers for retirement feedback; cleared before the fold so
    // the dangling window is exactly the stepping loop.
    shared_ = &shared;

    // Fault injection: decided before the first spawn so every
    // instance (initial and autoscaled) gets its fault timeline.
    faultsEnabled_ = config_.faults.enabled();
    // Faults read and move idle clocks at their own times, so the
    // idle march is lazy only in a fault-free run.
    lazyIdle_ = indexed_ && !faultsEnabled_;
    if (faultsEnabled_) {
        fatalIf(config_.retry.maxAttempts < 0,
                "RetrySpec: negative maxAttempts");
        fatalIf(config_.retry.backoffSec < 0.0,
                "RetrySpec: negative backoffSec");
        fatalIf(config_.retry.multiplier <= 0.0,
                "RetrySpec: multiplier must be positive");
    }
    // Failure-domain topology: per-domain books whenever a domain
    // map exists (domain-aware routing works without any fault
    // process), correlated-crash plans only under faults.
    const int numDomains = config_.faults.domainCount();
    for (int d = 0; d < numDomains; ++d) {
        result_.perDomain.emplace_back().domain = d;
        if (faultsEnabled_)
            domainPlans_.push_back(FaultPlan::forDomain(
                config_.faults, d, config_.sim.seed));
    }
    // The first domain pass finds the plans' earliest strike.
    if (!domainPlans_.empty())
        nextDomainAt_ = 0;

    for (int i = 0; i < initial; ++i)
        spawn(0);
    // Autoscaling reacts to observed arrival timestamps; a closed
    // loop has none (arrival = admission), so scaling requires an
    // open-loop workload.
    fatalIf(config_.scaling.enabled && shared.closedLoop(),
            "fleet autoscaling needs an open-loop workload "
            "(qps > 0)");

    result_.peakInstances = initial;

    stepLoop(shared);

    shared_ = nullptr;

    // Fold per-instance results in id order (retired instances'
    // loops are finished here too — their state froze at
    // retirement).
    result_.perInstance.reserve(instances_.size());
    for (auto &inst : instances_)
        settleIdle(*inst);
    PicoSec makespan = 0;
    for (const auto &inst : instances_)
        makespan = std::max(makespan, inst->loop->now());
    for (auto &inst : instances_) {
        // Close downtime still open at the end of the run: an
        // instance whose repair lands inside the makespan counts
        // down to its repair, one still dead at the end counts to
        // the makespan (availability is measured over the run
        // window).
        if (inst->down())
            closeDowntime(*inst, inst->rejoinAt >= 0 &&
                                         inst->rejoinAt < makespan
                                     ? inst->rejoinAt
                                     : makespan);
        result_.perInstanceDowntime.push_back(inst->downtime);
        SimResult sr = inst->loop->finish();
        ServingMetrics &m = result_.metrics;
        m.tbtMs.merge(sr.metrics.tbtMs);
        m.t2ftMs.merge(sr.metrics.t2ftMs);
        m.e2eMs.merge(sr.metrics.e2eMs);
        m.totalTokens += sr.metrics.totalTokens;
        m.decodingOnlyStages += sr.metrics.decodingOnlyStages;
        m.mixedStages += sr.metrics.mixedStages;
        result_.totals += sr.totals;
        result_.generatedTokens += sr.generatedTokens;
        result_.peakBatch = std::max(result_.peakBatch, sr.peakBatch);
        result_.prefixCache.merge(sr.prefixCache);
        result_.requestsRetired += inst->observer->retired();
        result_.unfinishedRequests += sr.unfinishedRequests;
        result_.perInstance.push_back(std::move(sr));
        if (inst->domain >= 0) {
            DomainAvailability &da = result_.perDomain[
                static_cast<std::size_t>(inst->domain)];
            ++da.instances;
            da.downtime += inst->downtime;
        }
    }
    result_.metrics.elapsed = makespan;
    // The loop ends with work left only at the stage cap.
    result_.unfinishedRequests +=
        static_cast<std::int64_t>(shared.size() + retries_.size());
    result_.stageCapped = result_.unfinishedRequests > 0;

    // Per-domain availability, time-based, over the run window.
    for (DomainAvailability &da : result_.perDomain)
        if (makespan > 0 && da.instances > 0) {
            const double frac =
                static_cast<double>(da.downtime) /
                (static_cast<double>(makespan) *
                 static_cast<double>(da.instances));
            da.availability = frac >= 1.0 ? 0.0 : 1.0 - frac;
        }

    for (FleetObserver *o : observers_)
        o->onFleetEnd(result_);
    return std::move(result_);
}

// ------------------------------------------------ FleetUtilization

FleetUtilization::InstanceStats &
FleetUtilization::at(int instance)
{
    while (static_cast<int>(stats_.size()) <= instance) {
        InstanceStats s;
        s.id = static_cast<int>(stats_.size());
        stats_.push_back(s);
    }
    return stats_[static_cast<std::size_t>(instance)];
}

void
FleetUtilization::onRequestRouted(int instance, const Request &,
                                  PicoSec)
{
    ++at(instance).routed;
}

void
FleetUtilization::onStage(int instance, const StageObservation &obs)
{
    InstanceStats &s = at(instance);
    ++s.stages;
    s.busyTime += obs.result.time;
}

void
FleetUtilization::onRequestRetired(int instance, const Request &,
                                   PicoSec)
{
    ++at(instance).retired;
}

} // namespace duplex
