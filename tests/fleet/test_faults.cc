/**
 * @file
 * Fault-injection tests — the PR-7 guarantees:
 *
 *  - A fleet with faults disabled is bit-identical to one that never
 *    heard of the fault subsystem (inert FaultSpec/RetrySpec knobs
 *    change nothing), and healthy-first routing equals least-loaded
 *    on a fault-free fleet.
 *  - Faulted runs are deterministic: identical configs agree on
 *    every sample, counter, and the full fault timeline.
 *  - Crash semantics: queued + active requests evicted, retried
 *    after backoff, the instance rejoins at its repair time, and the
 *    accounting invariants hold (retired + dropped == workload
 *    requests; routed == requests + retries scheduled).
 *  - Degrade semantics: a straggler window slows the instance
 *    without downtime, and failure-aware routing steers around it.
 *  - Edge cases: zero-request workloads, fewer requests than
 *    instances, retry exhaustion, crashes landing on a draining
 *    autoscaled instance.
 *
 * And the PR-10 robustness guarantees:
 *
 *  - Failure-domain topology: whole-domain crashes strike every
 *    live member, correlated random domain crashes are
 *    deterministic, and the per-domain availability books close.
 *  - domain-spread routing beats least-loaded on worst-domain
 *    availability under correlated crashes.
 *  - Proactive draining migrates queued (never active) requests
 *    back through the router with zero lost work, and a crash
 *    landing mid-drain keeps the books.
 *  - A crash flushes the instance's KV prefix cache: the first
 *    post-rejoin turn of every session runs cold.
 *  - Availability-aware autoscaling holds spare capacity under
 *    faults and is inert without them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fleet/faults.hh"
#include "fleet/fleet.hh"

namespace duplex
{
namespace
{

SimConfig
baseSim()
{
    SimConfig c;
    c.systemName = "gpu";
    c.model = mixtralConfig();
    c.maxBatch = 16;
    c.workload.meanInputLen = 256;
    c.workload.meanOutputLen = 64;
    c.numRequests = 48;
    c.warmupRequests = 8;
    c.maxStages = 200000;
    return c;
}

/** Bit-exact comparison of two sample accumulators. */
void
expectSameSamples(const SampleStats &a, const SampleStats &b,
                  const char *what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.sum(), b.sum()) << what; // same fp add order
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
}

/** Bit-exact comparison of two whole fleet outcomes. */
void
expectSameFleetResult(const FleetResult &a, const FleetResult &b)
{
    EXPECT_EQ(a.metrics.elapsed, b.metrics.elapsed);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.requestsRouted, b.requestsRouted);
    EXPECT_EQ(a.requestsRetired, b.requestsRetired);
    EXPECT_EQ(a.totals.time, b.totals.time);
    EXPECT_EQ(a.totals.totalEnergyJ(), b.totals.totalEnergyJ());
    expectSameSamples(a.metrics.e2eMs, b.metrics.e2eMs, "e2e");
    expectSameSamples(a.metrics.tbtMs, b.metrics.tbtMs, "tbt");
    expectSameSamples(a.metrics.t2ftMs, b.metrics.t2ftMs, "t2ft");
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.degradeWindows, b.degradeWindows);
    EXPECT_EQ(a.requestsLost, b.requestsLost);
    EXPECT_EQ(a.lostWorkTokens, b.lostWorkTokens);
    EXPECT_EQ(a.retriesScheduled, b.retriesScheduled);
    EXPECT_EQ(a.requestsDropped, b.requestsDropped);
    EXPECT_EQ(a.totalDowntime, b.totalDowntime);
    EXPECT_EQ(a.drains, b.drains);
    EXPECT_EQ(a.requestsMigrated, b.requestsMigrated);
    ASSERT_EQ(a.faultEvents.size(), b.faultEvents.size());
    for (std::size_t i = 0; i < a.faultEvents.size(); ++i) {
        EXPECT_EQ(a.faultEvents[i].kind, b.faultEvents[i].kind);
        EXPECT_EQ(a.faultEvents[i].instance,
                  b.faultEvents[i].instance);
        EXPECT_EQ(a.faultEvents[i].at, b.faultEvents[i].at);
        EXPECT_EQ(a.faultEvents[i].domain, b.faultEvents[i].domain);
    }
    ASSERT_EQ(a.perInstance.size(), b.perInstance.size());
    for (std::size_t i = 0; i < a.perInstance.size(); ++i)
        EXPECT_EQ(a.perInstance[i].generatedTokens,
                  b.perInstance[i].generatedTokens)
            << "instance " << i;
    ASSERT_EQ(a.perInstanceDowntime.size(),
              b.perInstanceDowntime.size());
    for (std::size_t i = 0; i < a.perInstanceDowntime.size(); ++i)
        EXPECT_EQ(a.perInstanceDowntime[i],
                  b.perInstanceDowntime[i])
            << "instance " << i;
    ASSERT_EQ(a.perDomain.size(), b.perDomain.size());
    for (std::size_t i = 0; i < a.perDomain.size(); ++i) {
        EXPECT_EQ(a.perDomain[i].domain, b.perDomain[i].domain);
        EXPECT_EQ(a.perDomain[i].instances,
                  b.perDomain[i].instances);
        EXPECT_EQ(a.perDomain[i].crashes, b.perDomain[i].crashes);
        EXPECT_EQ(a.perDomain[i].routed, b.perDomain[i].routed);
        EXPECT_EQ(a.perDomain[i].lost, b.perDomain[i].lost);
        EXPECT_EQ(a.perDomain[i].downtime,
                  b.perDomain[i].downtime);
    }
}

/** Collects the fault/retry callback stream of one run. */
class FaultRecorder : public FleetObserver
{
  public:
    void onFault(int instance, const FaultEvent &event,
                 PicoSec now) override
    {
        (void)now;
        (void)instance;
        faults.push_back(event);
    }

    void onRetry(int instance, const Request &request, int attempt,
                 bool dropped, PicoSec at) override
    {
        (void)instance;
        (void)request;
        (void)at;
        if (dropped)
            ++drops;
        else
            ++retries;
        lastAttempt = attempt;
    }

    std::vector<FaultEvent> faults;
    int retries = 0;
    int drops = 0;
    int lastAttempt = 0;
};

// --- the no-fault bit-identity contract -------------------------

TEST(Faults, InertFaultKnobsChangeNothing)
{
    // A config that never mentions faults vs one that fiddles every
    // knob that does NOT enable them (mttr, straggler shape, retry
    // discipline): byte-identical outcomes, zero fault counters.
    FleetConfig plain;
    plain.sim = baseSim();
    plain.sim.workload.qps = 12.0;
    plain.instances = 3;
    plain.policy = "least-loaded";

    FleetConfig inert = plain;
    inert.faults.mttrSec = 9.0;
    inert.faults.stragglerFraction = 0.9;
    inert.faults.stragglerFactor = 7.0;
    inert.faults.domainMttrSec = 2.0;
    inert.faults.drainFactorThreshold = 5.0;
    inert.retry.maxAttempts = 1;
    inert.retry.backoffSec = 3.0;
    inert.scaling.availabilityAware = true; // scaling disabled

    const FleetResult a = FleetDriver(plain).run();
    const FleetResult b = FleetDriver(inert).run();
    expectSameFleetResult(a, b);
    EXPECT_EQ(a.crashes, 0);
    EXPECT_EQ(a.requestsLost, 0);
    EXPECT_EQ(a.totalDowntime, 0);
    EXPECT_TRUE(a.faultEvents.empty());
    EXPECT_DOUBLE_EQ(a.availability(), 1.0);
}

TEST(Faults, HealthyFirstEqualsLeastLoadedWhenAllHealthy)
{
    // With every instance Healthy, the failure-aware policy must
    // degenerate to exactly least-loaded — no behavior tax for
    // running it on a reliable fleet.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 12.0;
    fc.instances = 3;
    fc.policy = "least-loaded";
    const FleetResult ll = FleetDriver(fc).run();

    fc.policy = "healthy-first";
    const FleetResult hf = FleetDriver(fc).run();
    expectSameFleetResult(ll, hf);
}

// --- crash semantics --------------------------------------------

TEST(Faults, CrashEvictsRetriesRejoinsAndBalances)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 64;
    fc.instances = 2;
    fc.policy = "least-loaded";
    fc.faults.events =
        parseFaultList("crash@1.0:0:0.5"); // down 0.5 s, rejoins

    FaultRecorder rec;
    FleetDriver driver(fc);
    driver.addObserver(&rec);
    const FleetResult r = driver.run();

    EXPECT_EQ(r.crashes, 1);
    EXPECT_GT(r.requestsLost, 0) << "crash hit an idle instance; "
                                    "raise qps or move the event";
    EXPECT_EQ(r.retriesScheduled, r.requestsLost)
        << "nothing should be dropped under the default budget";
    EXPECT_EQ(r.requestsDropped, 0);
    EXPECT_GT(r.totalDowntime, 0);
    EXPECT_LT(r.availability(), 1.0);
    EXPECT_GT(r.availability(), 0.0);

    // Accounting closes: every workload request retired, and the
    // router saw each loss come back around exactly once.
    EXPECT_EQ(r.requestsRetired, fc.sim.numRequests);
    EXPECT_EQ(r.requestsRouted,
              fc.sim.numRequests + r.retriesScheduled);

    // Timeline: the crash strikes at/after its scheduled time (the
    // stage-boundary alignment only moves events forward), then the
    // rejoin closes the window no earlier than the scheduled repair
    // time (strike time + downtime, anchored to the schedule).
    ASSERT_EQ(rec.faults.size(), 2u);
    EXPECT_EQ(rec.faults[0].kind, FaultKind::Crash);
    EXPECT_EQ(rec.faults[0].instance, 0);
    EXPECT_GE(rec.faults[0].at, secToPs(1.0));
    EXPECT_EQ(rec.faults[1].kind, FaultKind::Rejoin);
    EXPECT_GE(rec.faults[1].at, secToPs(1.5));
    EXPECT_GT(rec.faults[1].at, rec.faults[0].at);
    EXPECT_EQ(static_cast<std::int64_t>(rec.retries),
              r.retriesScheduled);
    EXPECT_EQ(rec.drops, 0);
    ASSERT_EQ(r.faultEvents.size(), rec.faults.size());
}

TEST(Faults, RetryExhaustionDropsEveryLoss)
{
    // maxAttempts = 0: a crashed-out request is dropped on the
    // spot. The crashed instance never rejoins, so the survivor
    // serves the rest — and the books still balance.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 64;
    fc.instances = 2;
    fc.policy = "least-loaded";
    fc.faults.events = parseFaultList("crash@1.0:0"); // no rejoin
    fc.retry.maxAttempts = 0;

    FaultRecorder rec;
    FleetDriver driver(fc);
    driver.addObserver(&rec);
    const FleetResult r = driver.run();

    EXPECT_GT(r.requestsLost, 0);
    EXPECT_EQ(r.requestsDropped, r.requestsLost);
    EXPECT_EQ(r.retriesScheduled, 0);
    EXPECT_EQ(r.requestsRetired + r.requestsDropped,
              fc.sim.numRequests);
    EXPECT_EQ(r.requestsRouted, fc.sim.numRequests);
    EXPECT_EQ(static_cast<std::int64_t>(rec.drops),
              r.requestsDropped);
    EXPECT_EQ(rec.retries, 0);
}

// --- degrade semantics ------------------------------------------

TEST(Faults, DegradeWindowSlowsWithoutDowntime)
{
    // One instance, closed loop, the whole run inside a 4x
    // straggler window: everything still retires, the makespan
    // stretches, and availability stays 1.0 (slow != down).
    FleetConfig fc;
    fc.sim = baseSim();
    fc.instances = 1;
    const FleetResult plain = FleetDriver(fc).run();

    FleetConfig slow = fc;
    slow.faults.events = parseFaultList("degrade@0:0:1000:4");
    const FleetResult r = FleetDriver(slow).run();

    EXPECT_EQ(r.degradeWindows, 1);
    EXPECT_EQ(r.crashes, 0);
    EXPECT_EQ(r.requestsRetired, fc.sim.numRequests);
    EXPECT_GT(r.metrics.elapsed, plain.metrics.elapsed);
    EXPECT_EQ(r.totalDowntime, 0);
    EXPECT_DOUBLE_EQ(r.availability(), 1.0);
}

TEST(Faults, HealthyFirstSteersAroundTheStraggler)
{
    // Instance 0 straggles for the whole run; the failure-aware
    // policy must send the bulk of the traffic to instance 1.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 8.0;
    fc.sim.numRequests = 64;
    fc.instances = 2;
    fc.policy = "healthy-first";
    fc.faults.events = parseFaultList("degrade@0:0:1000:8");

    class Router : public FleetObserver
    {
      public:
        void onRequestRouted(int instance, const Request &,
                             PicoSec) override
        {
            ++routed[instance];
        }
        std::int64_t routed[2] = {0, 0};
    } router;

    FleetDriver driver(fc);
    driver.addObserver(&router);
    const FleetResult r = driver.run();
    EXPECT_EQ(r.requestsRetired, fc.sim.numRequests);
    EXPECT_GT(router.routed[1], router.routed[0])
        << "healthy-first kept feeding the straggler";
}

// --- determinism ------------------------------------------------

TEST(Faults, RandomFaultsAreDeterministic)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 12.0;
    fc.sim.numRequests = 96;
    fc.instances = 4;
    fc.policy = "healthy-first";
    fc.faults.mtbfSec = 1.5;
    fc.faults.mttrSec = 0.5;
    fc.faults.stragglerFraction = 0.3;

    const FleetResult a = FleetDriver(fc).run();
    const FleetResult b = FleetDriver(fc).run();
    EXPECT_GT(a.crashes + a.degradeWindows, 0)
        << "MTBF too long to exercise anything";
    expectSameFleetResult(a, b);
}

// --- edge cases -------------------------------------------------

TEST(Faults, ZeroRequestWorkloadFinishesClean)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.numRequests = 0;
    fc.sim.warmupRequests = 0;
    fc.instances = 2;
    fc.faults.events = parseFaultList("crash@1.0:0:0.5");

    const FleetResult r = FleetDriver(fc).run();
    EXPECT_EQ(r.requestsRouted, 0);
    EXPECT_EQ(r.requestsRetired, 0);
    EXPECT_EQ(r.requestsLost, 0);
    EXPECT_EQ(r.requestsDropped, 0);
    EXPECT_DOUBLE_EQ(r.availability(), 1.0);
}

TEST(Faults, FewerRequestsThanInstances)
{
    // 3 requests across 8 instances, one of which crashes while
    // mostly idle: everything still retires.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 4.0;
    fc.sim.numRequests = 3;
    fc.sim.warmupRequests = 0;
    fc.instances = 8;
    fc.policy = "round-robin";
    fc.faults.events = parseFaultList("crash@0.1:5:0.2");

    const FleetResult r = FleetDriver(fc).run();
    EXPECT_EQ(r.requestsRetired + r.requestsDropped, 3);
    EXPECT_EQ(r.requestsRouted,
              3 + r.retriesScheduled);
}

TEST(Faults, CrashesDuringAutoscaleDrainsKeepTheBooks)
{
    // The hardest interleaving: a diurnal ramp scaling up and
    // draining down while random crashes and stragglers land on
    // instances in every state (including already-draining ones).
    // The invariants must survive all of it.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workloadName = "diurnal";
    fc.sim.workload.diurnalLowQps = 0.5;
    fc.sim.workload.diurnalHighQps = 40.0;
    fc.sim.workload.diurnalPeriodSec = 16.0;
    fc.sim.workload.meanInputLen = 128;
    fc.sim.workload.meanOutputLen = 32;
    fc.sim.numRequests = 400;
    fc.instances = 1;
    fc.policy = "healthy-first";
    fc.scaling.enabled = true;
    fc.scaling.minInstances = 1;
    fc.scaling.maxInstances = 4;
    fc.scaling.upQpsPerInstance = 6.0;
    fc.scaling.downQpsPerInstance = 2.0;
    fc.scaling.windowSec = 2.0;
    fc.scaling.cooldownSec = 3.0;
    fc.faults.mtbfSec = 2.0;
    fc.faults.mttrSec = 0.5;
    fc.faults.stragglerFraction = 0.25;

    const FleetResult a = FleetDriver(fc).run();
    EXPECT_GT(a.crashes, 0) << "no crash landed; shorten the MTBF";
    EXPECT_GE(a.scaleUps, 1);
    EXPECT_EQ(a.requestsRetired + a.requestsDropped,
              fc.sim.numRequests);
    EXPECT_EQ(a.requestsRouted,
              fc.sim.numRequests + a.retriesScheduled);
    EXPECT_GT(a.totalDowntime, 0);
    EXPECT_LT(a.availability(), 1.0);

    // And the whole tangle double-runs byte-identical.
    const FleetResult b = FleetDriver(fc).run();
    expectSameFleetResult(a, b);
}

TEST(Faults, GoldenCombinedLifecycle)
{
    // Every lifecycle transition in one run — a crash and its
    // rejoin, a degrade past the drain threshold (with migration),
    // a whole-domain strike, autoscaling and retries — pinned to
    // exact values. The other fault tests compare a run with its own
    // double run; this one checks a change to FleetDriver against
    // the code it replaces.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 32.0;
    fc.sim.numRequests = 128;
    fc.instances = 2;
    fc.policy = "healthy-first";
    fc.scaling.enabled = true;
    fc.scaling.minInstances = 1;
    fc.scaling.maxInstances = 4;
    fc.scaling.upQpsPerInstance = 6.0;
    fc.scaling.downQpsPerInstance = 2.0;
    fc.scaling.windowSec = 2.0;
    fc.scaling.cooldownSec = 1.0;
    fc.faults.numDomains = 2;
    fc.faults.drainFactorThreshold = 2.0;
    fc.faults.events = parseFaultList("crash@0.5:0:0.5; "
                                      "degrade@1.0:1:1.0:4; "
                                      "crash@2.5:domain=1:0.5");

    const FleetResult r = FleetDriver(fc).run();
    EXPECT_EQ(r.metrics.elapsed, 4743227377705);
    EXPECT_EQ(r.requestsRouted, 146);
    EXPECT_EQ(r.requestsRetired, 128);
    EXPECT_EQ(r.requestsDropped, 0);
    EXPECT_EQ(r.requestsMigrated, 6);
    EXPECT_EQ(r.requestsLost, 12);
    EXPECT_EQ(r.totalDowntime, 1484658973562);
    EXPECT_EQ(r.faultEvents.size(), 8u);
}

// --- failure domains --------------------------------------------

TEST(Faults, DomainTopologyStripesAndExplicitMapWins)
{
    FaultSpec striped;
    striped.numDomains = 3;
    EXPECT_EQ(striped.domainCount(), 3);
    EXPECT_TRUE(striped.hasDomains());
    EXPECT_EQ(striped.domainFor(0), 0);
    EXPECT_EQ(striped.domainFor(4), 1);
    EXPECT_EQ(striped.domainFor(5), 2);

    FaultSpec mapped;
    mapped.domainOf = {1, 1, 0};
    EXPECT_EQ(mapped.domainCount(), 2);
    EXPECT_EQ(mapped.domainFor(1), 1);
    EXPECT_EQ(mapped.domainFor(2), 0);
    // Instances past the explicit map stripe over its width.
    EXPECT_EQ(mapped.domainFor(3), 1);

    FaultSpec none;
    EXPECT_FALSE(none.hasDomains());
    EXPECT_EQ(none.domainFor(7), -1);
    // Topology alone never enables fault processes.
    EXPECT_FALSE(striped.enabled());
}

TEST(Faults, DomainTopologyAloneIsInertExceptReporting)
{
    // --domains with no fault process: identical serving behavior,
    // plus all-green per-domain reporting.
    FleetConfig plain;
    plain.sim = baseSim();
    plain.sim.workload.qps = 12.0;
    plain.instances = 4;
    plain.policy = "least-loaded";

    FleetConfig domains = plain;
    domains.faults.numDomains = 2;

    const FleetResult a = FleetDriver(plain).run();
    const FleetResult b = FleetDriver(domains).run();
    EXPECT_EQ(a.metrics.elapsed, b.metrics.elapsed);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.requestsRouted, b.requestsRouted);
    EXPECT_EQ(a.requestsRetired, b.requestsRetired);
    expectSameSamples(a.metrics.tbtMs, b.metrics.tbtMs, "tbt");

    EXPECT_TRUE(a.perDomain.empty());
    ASSERT_EQ(b.perDomain.size(), 2u);
    for (const DomainAvailability &d : b.perDomain) {
        EXPECT_EQ(d.instances, 2);
        EXPECT_EQ(d.crashes, 0);
        EXPECT_EQ(d.lost, 0);
        EXPECT_EQ(d.downtime, 0);
        EXPECT_DOUBLE_EQ(d.availability, 1.0);
        EXPECT_DOUBLE_EQ(d.served(), 1.0);
    }
    EXPECT_GT(b.perDomain[0].routed, 0);
    EXPECT_DOUBLE_EQ(b.worstDomainAvailability(), 1.0);
}

TEST(Faults, WholeDomainCrashStrikesEveryMember)
{
    // 4 instances striped over 2 domains (0,2 -> domain 0); one
    // scheduled domain-0 crash must take BOTH members down with the
    // same downtime, and the per-domain books must close.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 96;
    fc.instances = 4;
    fc.policy = "least-loaded";
    fc.faults.numDomains = 2;
    fc.faults.events = parseFaultList("crash@1.0:domain=0:0.5");

    FaultRecorder rec;
    FleetDriver driver(fc);
    driver.addObserver(&rec);
    const FleetResult r = driver.run();

    EXPECT_EQ(r.crashes, 2);
    int domainCrashes = 0;
    for (const FaultEvent &e : rec.faults)
        if (e.kind == FaultKind::Crash) {
            ++domainCrashes;
            EXPECT_EQ(e.domain, 0);
            EXPECT_TRUE(e.instance == 0 || e.instance == 2)
                << "struck instance " << e.instance
                << " outside domain 0";
            EXPECT_GE(e.at, secToPs(1.0));
        }
    EXPECT_EQ(domainCrashes, 2);

    ASSERT_EQ(r.perDomain.size(), 2u);
    EXPECT_EQ(r.perDomain[0].crashes, 2);
    EXPECT_EQ(r.perDomain[1].crashes, 0);
    EXPECT_GT(r.perDomain[0].downtime, 0);
    EXPECT_EQ(r.perDomain[1].downtime, 0);
    EXPECT_LT(r.perDomain[0].availability, 1.0);
    EXPECT_DOUBLE_EQ(r.perDomain[1].availability, 1.0);
    EXPECT_LE(r.worstDomainAvailability(),
              r.perDomain[1].served());

    // Downtime folds: per-instance downtime sums to the total, and
    // only domain-0 members accrued any.
    ASSERT_EQ(r.perInstanceDowntime.size(), 4u);
    PicoSec sum = 0;
    for (PicoSec d : r.perInstanceDowntime)
        sum += d;
    EXPECT_EQ(sum, r.totalDowntime);
    EXPECT_GT(r.perInstanceDowntime[0], 0);
    EXPECT_EQ(r.perInstanceDowntime[1], 0);
    EXPECT_GT(r.perInstanceDowntime[2], 0);
    EXPECT_EQ(r.perInstanceDowntime[3], 0);

    // Request accounting closes across the correlated strike.
    EXPECT_EQ(r.requestsRetired + r.requestsDropped,
              fc.sim.numRequests);
    EXPECT_EQ(r.requestsRouted,
              fc.sim.numRequests + r.retriesScheduled +
                  r.requestsMigrated);
    std::int64_t domainRouted = 0;
    for (const DomainAvailability &d : r.perDomain)
        domainRouted += d.routed;
    EXPECT_EQ(domainRouted, r.requestsRouted);
}

TEST(Faults, CorrelatedRandomDomainCrashesAreDeterministic)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 12.0;
    fc.sim.numRequests = 96;
    fc.instances = 4;
    fc.policy = "healthy-first";
    fc.faults.numDomains = 2;
    fc.faults.domainMtbfSec = 1.5;
    fc.faults.domainMttrSec = 0.5;

    const FleetResult a = FleetDriver(fc).run();
    const FleetResult b = FleetDriver(fc).run();
    EXPECT_GT(a.crashes, 0)
        << "domain MTBF too long to exercise anything";
    expectSameFleetResult(a, b);

    // Every crash lands in some domain, and the per-domain fold
    // accounts for each of them.
    int domainCrashes = 0;
    for (const DomainAvailability &d : a.perDomain)
        domainCrashes += d.crashes;
    EXPECT_EQ(domainCrashes, a.crashes);
}

TEST(Faults, DomainSpreadBeatsLeastLoadedOnWorstDomain)
{
    // The rejoin-flood trap: domain 1 crashes, rejoins empty, and
    // least-loaded (which chases KV headroom) floods the freshly
    // empty domain right before it crashes AGAIN — so domain 1
    // eats a deep queue of losses. domain-spread balances in-flight
    // work ACROSS domains, capping the pile-up any single strike
    // can take out.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 96.0;
    fc.sim.numRequests = 256;
    fc.instances = 4;
    fc.faults.numDomains = 2;
    fc.faults.events = parseFaultList(
        "crash@1.0:domain=1:0.5; crash@2.0:domain=1:0.75");
    fc.retry.maxAttempts = 6;

    fc.policy = "least-loaded";
    const FleetResult ll = FleetDriver(fc).run();
    fc.policy = "domain-spread";
    const FleetResult ds = FleetDriver(fc).run();

    EXPECT_EQ(ll.crashes, 4);
    EXPECT_EQ(ds.crashes, 4);
    EXPECT_GT(ds.worstDomainAvailability(),
              ll.worstDomainAvailability())
        << "domain-spread should defend the struck domain's "
           "served fraction";
    // Both drain the stream eventually — resilience, not triage.
    EXPECT_EQ(ds.requestsRetired + ds.requestsDropped,
              fc.sim.numRequests);
}

// --- proactive draining -----------------------------------------

TEST(Faults, ProactiveDrainMigratesQueuedWithoutLoss)
{
    // A heavy queue builds on instance 0 (arrivals far outrun the
    // 16-wide batch), then a 4x degrade crosses the drain
    // threshold: the queued requests must migrate back through the
    // router as NEW routes (no retry budget, no lost work), while
    // the active batch keeps running.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 200.0;
    fc.sim.numRequests = 96;
    fc.instances = 2;
    fc.policy = "least-loaded";
    fc.faults.drainFactorThreshold = 2.0;
    fc.faults.events = parseFaultList("degrade@0.5:0:3:4");

    FaultRecorder rec;
    FleetDriver driver(fc);
    driver.addObserver(&rec);
    const FleetResult r = driver.run();

    EXPECT_EQ(r.drains, 1);
    EXPECT_GT(r.requestsMigrated, 0)
        << "the degrade hit an empty queue; raise qps";
    EXPECT_EQ(r.requestsLost, 0);
    EXPECT_EQ(r.retriesScheduled, 0);
    EXPECT_EQ(r.requestsDropped, 0);
    EXPECT_EQ(r.crashes, 0);
    EXPECT_EQ(r.requestsRetired, fc.sim.numRequests);
    EXPECT_EQ(r.requestsRouted,
              fc.sim.numRequests + r.requestsMigrated);
    // Slow, never down.
    EXPECT_EQ(r.totalDowntime, 0);
    EXPECT_DOUBLE_EQ(r.availability(), 1.0);

    // The timeline surfaces the drain on the degraded instance.
    bool sawDrain = false;
    for (const FaultEvent &e : rec.faults)
        if (e.kind == FaultKind::Drain) {
            sawDrain = true;
            EXPECT_EQ(e.instance, 0);
        }
    EXPECT_TRUE(sawDrain);

    // And the tangle double-runs byte-identical.
    FleetDriver again(fc);
    const FleetResult r2 = again.run();
    expectSameFleetResult(r, r2);
}

TEST(Faults, DrainBelowThresholdNeverFires)
{
    // A 1.5x straggler under a 2x threshold: same run as with the
    // drain feature disabled, zero drains.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 24.0;
    fc.sim.numRequests = 96;
    fc.instances = 2;
    fc.policy = "least-loaded";
    fc.faults.events = parseFaultList("degrade@0.5:0:3:1.5");

    FleetConfig gated = fc;
    gated.faults.drainFactorThreshold = 2.0;

    const FleetResult a = FleetDriver(fc).run();
    const FleetResult b = FleetDriver(gated).run();
    expectSameFleetResult(a, b);
    EXPECT_EQ(b.drains, 0);
    EXPECT_EQ(b.requestsMigrated, 0);
}

TEST(Faults, DrainOnSingleInstanceFleetCompletes)
{
    // Degenerate but legal: the ONLY instance drains. Nothing else
    // can take the migrated requests, so the driver must hold them
    // until the degrade window closes (the force-drain-end path)
    // instead of deadlocking.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 48;
    fc.instances = 1;
    fc.faults.drainFactorThreshold = 2.0;
    fc.faults.events = parseFaultList("degrade@0.5:0:2:4");

    const FleetResult r = FleetDriver(fc).run();
    EXPECT_EQ(r.drains, 1);
    EXPECT_EQ(r.requestsRetired, fc.sim.numRequests);
    EXPECT_EQ(r.requestsRouted,
              fc.sim.numRequests + r.requestsMigrated);
    EXPECT_EQ(r.requestsLost, 0);
}

TEST(Faults, CrashDuringProactiveDrainKeepsTheBooks)
{
    // A crash lands on an instance that is already fault-draining:
    // the crash supersedes the drain (its queued requests already
    // migrated; the active batch is now lost work), and after the
    // rejoin the instance admits again. Books must close across
    // migration + retries, and the whole thing double-runs
    // byte-identical.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 200.0;
    fc.sim.numRequests = 96;
    fc.instances = 2;
    fc.policy = "least-loaded";
    fc.faults.drainFactorThreshold = 2.0;
    fc.faults.events =
        parseFaultList("degrade@0.5:0:5:4; crash@1.0:0:0.5");

    const FleetResult r = FleetDriver(fc).run();
    EXPECT_EQ(r.drains, 1);
    EXPECT_EQ(r.crashes, 1);
    EXPECT_GT(r.requestsMigrated, 0);
    EXPECT_EQ(r.requestsRetired + r.requestsDropped,
              fc.sim.numRequests);
    EXPECT_EQ(r.requestsRouted,
              fc.sim.numRequests + r.retriesScheduled +
                  r.requestsMigrated);
    EXPECT_GT(r.totalDowntime, 0);

    const FleetResult r2 = FleetDriver(fc).run();
    expectSameFleetResult(r, r2);
}

TEST(Faults, NothingRoutableAdvancesToTheEarliestTransition)
{
    // Instance 0 crashes with a 5 s repair while instance 1 drains
    // for a 1 s window: nothing is routable from ~0.5 s. The
    // earliest transition that restores routing is instance 1's
    // window close at 1.5 s, not instance 0's repair at 5.5 s, so
    // nothing that arrives meanwhile may land on instance 0.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 48;
    fc.instances = 2;
    fc.policy = "least-loaded";
    fc.faults.drainFactorThreshold = 2.0;
    fc.faults.events =
        parseFaultList("crash@0.5:0:5; degrade@0.5:1:1:4");

    class EarlyRoutes : public FleetObserver
    {
      public:
        void onFault(int instance, const FaultEvent &event,
                     PicoSec) override
        {
            if (instance == 0 && event.kind == FaultKind::Crash)
                crashed = true;
        }
        void onRequestRouted(int instance, const Request &request,
                             PicoSec) override
        {
            if (crashed && instance == 0 &&
                request.arrival < secToPs(1.5))
                ++toCrashed;
        }
        bool crashed = false;
        int toCrashed = 0;
    } routes;

    FleetDriver driver(fc);
    driver.addObserver(&routes);
    const FleetResult r = driver.run();

    EXPECT_EQ(r.crashes, 1);
    EXPECT_EQ(r.drains, 1);
    EXPECT_EQ(routes.toCrashed, 0)
        << "requests arriving before the drain window closed were "
           "held for the crashed instance's repair";
    EXPECT_EQ(r.requestsRetired + r.requestsDropped,
              fc.sim.numRequests);
    EXPECT_EQ(r.requestsRouted,
              fc.sim.numRequests + r.retriesScheduled +
                  r.requestsMigrated);
}

TEST(Faults, RoutingToADrainingInstanceIsCaught)
{
    // A policy that keeps picking instance 1 after it fault-drains
    // must trip the driver's routability check, like one picking a
    // down or retired instance.
    EXPECT_DEATH(
        {
            class PinnedPolicy : public RoutingPolicy
            {
              public:
                int route(const Request &,
                          const std::vector<InstanceStatus> &) override
                {
                    return 1;
                }
                const std::string &name() const override
                {
                    static const std::string kName = "test-pinned-1";
                    return kName;
                }
                std::string describe() const override
                {
                    return "always instance 1 (test only)";
                }
            };
            registerRoutingPolicy(
                "test-pinned-1", "always instance 1 (test only)",
                [] { return std::make_unique<PinnedPolicy>(); });
            FleetConfig fc;
            fc.sim = baseSim();
            fc.sim.workload.qps = 16.0;
            fc.instances = 2;
            fc.policy = "test-pinned-1";
            fc.faults.drainFactorThreshold = 2.0;
            fc.faults.events = parseFaultList("degrade@0.5:1:2:4");
            FleetDriver(fc).run();
        },
        "picked an unroutable instance");
}

TEST(Faults, ScaleDownNeverDrainsTheLastRoutableInstance)
{
    // Instance 0 is down for 3 s while arrivals run well below the
    // scale-down threshold. Draining the highest-id accepting
    // instance — instance 1, the only one serving — would leave the
    // request in hand nowhere to go, so the drain waits until
    // instance 0 is back.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 2.0;
    fc.sim.numRequests = 16;
    fc.instances = 2;
    fc.policy = "least-loaded";
    fc.scaling.enabled = true;
    fc.scaling.minInstances = 1;
    fc.scaling.maxInstances = 2;
    fc.scaling.upQpsPerInstance = 100.0;
    fc.scaling.downQpsPerInstance = 2.0;
    fc.scaling.windowSec = 2.0;
    fc.scaling.cooldownSec = 1.0;
    fc.faults.events = parseFaultList("crash@0.1:0:3");

    const FleetResult r = FleetDriver(fc).run();
    EXPECT_EQ(r.crashes, 1);
    EXPECT_EQ(r.scaleDowns, 1);
    ASSERT_FALSE(r.scaleEvents.empty());
    ASSERT_EQ(r.faultEvents.size(), 2u);
    EXPECT_EQ(r.faultEvents[1].kind, FaultKind::Rejoin);
    EXPECT_EQ(r.scaleEvents.front().kind, ScaleEvent::Kind::Drain);
    EXPECT_GE(r.scaleEvents.front().time, r.faultEvents[1].at);
    EXPECT_EQ(r.requestsRetired + r.requestsDropped,
              fc.sim.numRequests);
    EXPECT_EQ(r.requestsRouted,
              fc.sim.numRequests + r.retriesScheduled);
}

// --- sessions + prefix cache under faults -----------------------

/** Session fleet with per-instance prefix caches (no shared
 *  prefix, so every cache entry is per-session context). */
FleetConfig
sessionFaultFleet(int instances)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workloadName = "session";
    fc.sim.workload.qps = 4.0; // fresh sessions/s
    fc.sim.workload.meanInputLen = 192;
    fc.sim.workload.meanOutputLen = 48;
    fc.sim.workload.sessionTurns = 4;
    fc.sim.workload.sharedPrefixTokens = 0;
    fc.sim.workload.meanThinkSec = 0.1;
    fc.sim.numRequests = 48;
    // Far above the run's working set so the fault-free baseline
    // never evicts for capacity — every eviction in a faulted run
    // is a crash flush.
    fc.sim.prefixCache.budgetBytes = 8ll << 30;
    fc.sim.prefixCache.evictPolicy = "lru";
    fc.instances = instances;
    fc.policy = instances > 1 ? "session-affinity" : "round-robin";
    return fc;
}

TEST(Faults, CrashFlushesThePrefixCache)
{
    // Regression: applyCrash used to leave the instance's
    // PrefixCachePool warm across the downtime, so post-rejoin
    // turns hit KV that died with the instance. The budget is far
    // bigger than the run, so the baseline evicts NOTHING — every
    // eviction in the crashed run is the flush — and each
    // session's first post-rejoin turn must run fully cold.
    const FleetConfig plainCfg = sessionFaultFleet(1);
    const FleetResult plain = FleetDriver(plainCfg).run();
    EXPECT_GT(plain.prefixCache.hits, 0);
    EXPECT_EQ(plain.prefixCache.evictions, 0);

    FleetConfig fc = plainCfg;
    fc.faults.events = parseFaultList("crash@1.5:0:0.5");

    class Retirements : public FleetObserver
    {
      public:
        void onRequestRetired(int, const Request &r,
                              PicoSec now) override
        {
            retired.push_back({r.sessionId, r.cachedTokens, now});
        }
        struct Row
        {
            std::int64_t session;
            std::int64_t cachedTokens;
            PicoSec at;
        };
        std::vector<Row> retired;
    } log;

    FaultRecorder rec;
    FleetDriver driver(fc);
    driver.addObserver(&rec);
    driver.addObserver(&log);
    const FleetResult r = driver.run();

    EXPECT_EQ(r.crashes, 1);
    EXPECT_GT(r.prefixCache.evictions, 0)
        << "the crash flushed nothing";
    EXPECT_LT(r.prefixCache.hits, plain.prefixCache.hits)
        << "post-rejoin turns still ran warm";

    // Zero warm tokens on the first post-rejoin turn of every
    // session: nothing can hit a flushed pool until some turn
    // re-installs its context.
    PicoSec rejoinAt = -1;
    for (const FaultEvent &e : rec.faults)
        if (e.kind == FaultKind::Rejoin)
            rejoinAt = e.at;
    ASSERT_GE(rejoinAt, 0);
    std::set<std::int64_t> seen;
    int postRejoinFirsts = 0;
    for (const auto &row : log.retired) {
        if (row.at <= rejoinAt)
            continue;
        if (!seen.insert(row.session).second)
            continue; // later turn; may be warm again
        ++postRejoinFirsts;
        EXPECT_EQ(row.cachedTokens, 0)
            << "session " << row.session
            << " hit the cache across the crash";
    }
    EXPECT_GT(postRejoinFirsts, 0)
        << "no session retired after the rejoin; move the crash";
}

TEST(Faults, WholeDomainCrashWithSessionsReroutes)
{
    // Satellite 3: a whole-domain crash under the session workload.
    // Retirement-feedback turns pinned to the downed domain must
    // re-route instead of deadlocking the feedback loop, and the
    // run must double-run byte-identical.
    FleetConfig fc = sessionFaultFleet(4);
    fc.faults.numDomains = 2;
    fc.faults.events = parseFaultList("crash@1.0:domain=0:0.5");

    const FleetResult a = FleetDriver(fc).run();
    EXPECT_EQ(a.crashes, 2);
    EXPECT_EQ(a.requestsRetired + a.requestsDropped,
              fc.sim.numRequests);
    EXPECT_EQ(a.requestsRouted,
              fc.sim.numRequests + a.retriesScheduled +
                  a.requestsMigrated);
    ASSERT_EQ(a.perDomain.size(), 2u);
    EXPECT_EQ(a.perDomain[0].crashes, 2);

    const FleetResult b = FleetDriver(fc).run();
    expectSameFleetResult(a, b);
    EXPECT_EQ(a.prefixCache.hits, b.prefixCache.hits);
    EXPECT_EQ(a.prefixCache.evictions, b.prefixCache.evictions);
}

// --- availability-aware autoscaling -----------------------------

TEST(Faults, AvailabilityAwareScalingIsInertWithoutFaults)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 96;
    fc.instances = 1;
    fc.policy = "least-loaded";
    fc.scaling.enabled = true;
    fc.scaling.minInstances = 1;
    fc.scaling.maxInstances = 4;
    fc.scaling.upQpsPerInstance = 6.0;
    fc.scaling.downQpsPerInstance = 1.0;
    fc.scaling.windowSec = 2.0;
    fc.scaling.cooldownSec = 1.0; // 96 req at 16 qps span only 6 s

    FleetConfig aware = fc;
    aware.scaling.availabilityAware = true;

    const FleetResult a = FleetDriver(fc).run();
    const FleetResult b = FleetDriver(aware).run();
    EXPECT_GE(a.scaleUps, 1);
    expectSameFleetResult(a, b);
    EXPECT_EQ(a.scaleUps, b.scaleUps);
    EXPECT_EQ(a.peakInstances, b.peakInstances);
}

TEST(Faults, AvailabilityAwareScalingHoldsSpareCapacity)
{
    // Under sustained crashes the aware autoscaler discounts
    // accepting capacity by observed unavailability, so it scales
    // at least as eagerly as the plain one — never less.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 192;
    fc.instances = 1;
    fc.policy = "healthy-first";
    fc.scaling.enabled = true;
    fc.scaling.minInstances = 1;
    fc.scaling.maxInstances = 6;
    fc.scaling.upQpsPerInstance = 6.0;
    fc.scaling.downQpsPerInstance = 1.0;
    fc.scaling.windowSec = 2.0;
    fc.scaling.cooldownSec = 1.0;
    fc.faults.mtbfSec = 1.0;
    fc.faults.mttrSec = 0.5;

    FleetConfig aware = fc;
    aware.scaling.availabilityAware = true;

    const FleetResult plain = FleetDriver(fc).run();
    const FleetResult spare = FleetDriver(aware).run();
    EXPECT_GT(plain.crashes, 0);
    EXPECT_GE(spare.scaleUps, plain.scaleUps);
    EXPECT_GE(spare.peakInstances, plain.peakInstances);
    EXPECT_EQ(spare.requestsRetired + spare.requestsDropped,
              fc.sim.numRequests);

    // Deterministic like everything else.
    const FleetResult again = FleetDriver(aware).run();
    expectSameFleetResult(spare, again);
}

// --- the --faults grammar ---------------------------------------

TEST(Faults, ParseFaultListGrammar)
{
    const auto events =
        parseFaultList("crash@2:0; degrade@4:1:2:3.5, crash@6:2:1");
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, FaultKind::Crash);
    EXPECT_EQ(events[0].instance, 0);
    EXPECT_EQ(events[0].at, secToPs(2.0));
    EXPECT_EQ(events[0].duration, -1); // never rejoins
    EXPECT_EQ(events[1].kind, FaultKind::Degrade);
    EXPECT_EQ(events[1].instance, 1);
    EXPECT_EQ(events[1].duration, secToPs(2.0));
    EXPECT_DOUBLE_EQ(events[1].factor, 3.5);
    EXPECT_EQ(events[2].duration, secToPs(1.0));
}

TEST(Faults, ParseDomainCrashGrammar)
{
    const auto events =
        parseFaultList("crash@2:domain=1:1.5; crash@4:domain=0");
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, FaultKind::Crash);
    EXPECT_EQ(events[0].instance, -1); // whole domain, no instance
    EXPECT_EQ(events[0].domain, 1);
    EXPECT_EQ(events[0].at, secToPs(2.0));
    EXPECT_EQ(events[0].duration, secToPs(1.5));
    EXPECT_EQ(events[1].domain, 0);
    EXPECT_EQ(events[1].duration, -1); // never rejoins
    // Plain instance events carry no domain.
    EXPECT_EQ(parseFaultList("crash@2:0")[0].domain, -1);
}

TEST(Faults, ParseRejectsNonFiniteNumbers)
{
    // A NaN time is not a negative one; an infinite downtime is not
    // "never rejoins".
    EXPECT_EXIT({ parseFaultList("crash@nan:0"); },
                ::testing::ExitedWithCode(1),
                "bad time 'nan' in 'crash@nan:0' .not a finite");
    EXPECT_EXIT({ parseFaultList("crash@1:0:inf"); },
                ::testing::ExitedWithCode(1),
                "bad downtime 'inf' in 'crash@1:0:inf' .not a finite");
    EXPECT_EXIT({ parseFaultList("crash@1:1e30"); },
                ::testing::ExitedWithCode(1),
                "instance must be a non-negative integer in "
                "'crash@1:1e30'");
}

TEST(Faults, ParseRejectsTimeBeyondClockRange)
{
    // Times, downtimes and windows past the int64 picosecond clock
    // (~9.2e6 s) must not reach the cast in secToPs.
    EXPECT_EXIT({ parseFaultList("crash@1e7:0"); },
                ::testing::ExitedWithCode(1),
                "bad time '1e7' in 'crash@1e7:0' .beyond the simulated "
                "clock range");
    EXPECT_EXIT({ parseFaultList("crash@1:0:1e7"); },
                ::testing::ExitedWithCode(1),
                "bad downtime '1e7' in 'crash@1:0:1e7' .beyond");
    EXPECT_EXIT({ parseFaultList("degrade@1:0:1e7"); },
                ::testing::ExitedWithCode(1),
                "bad window '1e7' in 'degrade@1:0:1e7' .beyond");
    const auto events = parseFaultList("crash@9223372:0");
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].at, secToPs(9223372.0));
}

/** @p ps, a whole number of microseconds, as exact decimal seconds. */
std::string
microsecondSeconds(PicoSec ps)
{
    const std::int64_t us = ps / 1'000'000;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld.%06lld",
                  static_cast<long long>(us / 1'000'000),
                  static_cast<long long>(us % 1'000'000));
    return buf;
}

/** @p e in the --faults grammar, omitting what @p e leaves default. */
std::string
writeFaultItem(const FaultEvent &e)
{
    const std::string target = e.domain >= 0
                                   ? "domain=" + std::to_string(e.domain)
                                   : std::to_string(e.instance);
    if (e.kind == FaultKind::Crash)
        return "crash@" + microsecondSeconds(e.at) + ":" + target +
               (e.duration > 0 ? ":" + microsecondSeconds(e.duration)
                               : "");
    char factor[32];
    std::snprintf(factor, sizeof(factor), "%.17g", e.factor);
    return "degrade@" + microsecondSeconds(e.at) + ":" + target + ":" +
           microsecondSeconds(e.duration) +
           (e.factor != 3.0 ? ":" + std::string(factor) : "");
}

TEST(Faults, ParseFaultListRoundTrips)
{
    // Seeded random events of every grammar form, on a whole-
    // microsecond grid below 1000 s so secToPs is exact.
    Rng rng(20241017);
    const auto micros = [&rng](std::int64_t lo) {
        return rng.uniformInt(lo, 999'999'999) * 1'000'000;
    };
    std::vector<FaultEvent> drawn;
    std::string text;
    for (int i = 0; i < 400; ++i) {
        FaultEvent e;
        e.at = micros(0);
        switch (rng.uniformInt(0, 4)) {
          case 0: // crash that never rejoins
            e.instance = static_cast<int>(rng.uniformInt(0, 63));
            break;
          case 1: // crash with a downtime
            e.instance = static_cast<int>(rng.uniformInt(0, 63));
            e.duration = micros(1);
            break;
          case 2: // whole-domain crash, with or without a downtime
            e.domain = static_cast<int>(rng.uniformInt(0, 7));
            if (rng.uniform() < 0.5)
                e.duration = micros(1);
            break;
          case 3: // degrade at the default factor
            e.kind = FaultKind::Degrade;
            e.instance = static_cast<int>(rng.uniformInt(0, 63));
            e.duration = micros(1);
            e.factor = 3.0;
            break;
          default: // degrade with a factor
            e.kind = FaultKind::Degrade;
            e.instance = static_cast<int>(rng.uniformInt(0, 63));
            e.duration = micros(1);
            e.factor = 0.01 + 20.0 * rng.uniform();
            break;
        }
        if (!text.empty())
            text += rng.uniform() < 0.5 ? "; " : ",";
        text += writeFaultItem(e);
        drawn.push_back(e);
    }
    const std::vector<FaultEvent> parsed = parseFaultList(text);
    ASSERT_EQ(parsed.size(), drawn.size());
    for (std::size_t i = 0; i < drawn.size(); ++i) {
        SCOPED_TRACE(writeFaultItem(drawn[i]));
        EXPECT_EQ(parsed[i].kind, drawn[i].kind);
        EXPECT_EQ(parsed[i].instance, drawn[i].instance);
        EXPECT_EQ(parsed[i].domain, drawn[i].domain);
        EXPECT_EQ(parsed[i].at, drawn[i].at);
        EXPECT_EQ(parsed[i].duration, drawn[i].duration);
        EXPECT_EQ(parsed[i].factor, drawn[i].factor);
    }
}

TEST(Faults, SpecTimesBeyondClockRangeAreFatal)
{
    // Each mean or window becomes a picosecond time through secToPs,
    // so one past the int64 clock (~9.2e6 s) is refused up front
    // instead of logging crashes "down 0.0 ms".
    const auto expectFatal = [](double FaultSpec::*field,
                                const char *name, double sec) {
        FaultSpec spec;
        spec.mtbfSec = 1.0;
        spec.numDomains = 2;
        spec.domainMtbfSec = 1.0;
        spec.*field = sec;
        EXPECT_EXIT(FaultPlan(spec, 0, 1), ::testing::ExitedWithCode(1),
                    "FaultSpec: " + std::string(name) +
                        " is beyond the simulated clock range")
            << name << " = " << sec;
    };
    expectFatal(&FaultSpec::mtbfSec, "mtbfSec", 1e7);
    expectFatal(&FaultSpec::mttrSec, "mttrSec", 1e8);
    expectFatal(&FaultSpec::stragglerDurationSec,
                "stragglerDurationSec", 1e300);
    expectFatal(&FaultSpec::domainMtbfSec, "domainMtbfSec", 1e7);
    expectFatal(&FaultSpec::domainMttrSec, "domainMttrSec",
                std::numeric_limits<double>::infinity());
    // A repair mean and window just inside the clock still build.
    FaultSpec edge;
    edge.mtbfSec = 1.0;
    edge.mttrSec = 9.2e6;
    edge.stragglerDurationSec = 9.2e6;
    EXPECT_TRUE(FaultPlan(edge, 0, 1).pending());
}

TEST(Faults, RetryBackoffBeyondClockRangeIsFatal)
{
    // The delay of the attempt being scheduled is checked, so a
    // first backoff past the clock and one grown past it (to inf)
    // are both refused rather than routing every retry at once.
    RetrySpec retry;
    retry.backoffSec = 1e7;
    EXPECT_EXIT(retry.backoffFor(1), ::testing::ExitedWithCode(1),
                "RetrySpec: backoffSec grown by multiplier for attempt "
                "1 is beyond the simulated clock range");
    retry.backoffSec = 1e6;
    retry.multiplier = 2.0;
    EXPECT_EQ(retry.backoffFor(4), secToPs(8e6));
    EXPECT_EXIT(retry.backoffFor(5), ::testing::ExitedWithCode(1),
                "attempt 5 is beyond the simulated clock range");
    retry.backoffSec = 1.0;
    retry.multiplier = 1e300;
    EXPECT_EXIT(retry.backoffFor(3), ::testing::ExitedWithCode(1),
                "attempt 3 is beyond the simulated clock range");
}

TEST(Faults, ParseDomainRejectsNonCrash)
{
    EXPECT_EXIT({ parseFaultList("degrade@2:domain=1:2:3"); },
                ::testing::ExitedWithCode(1),
                "only crash can target a domain");
}

TEST(Faults, DomainEventNeedsTopology)
{
    // A scheduled domain crash without a domain map is a config
    // bug, not a silent no-op.
    EXPECT_EXIT(
        {
            FleetConfig fc;
            fc.sim = baseSim();
            fc.instances = 2;
            fc.faults.events =
                parseFaultList("crash@1:domain=0:0.5");
            FleetDriver(fc).run();
        },
        ::testing::ExitedWithCode(1), "domain");
}

TEST(Faults, ParseFaultListNamesTheBadItem)
{
    EXPECT_EXIT({ parseFaultList("crash@2:0;flood@3:1"); },
                ::testing::ExitedWithCode(1), "flood@3:1");
}

TEST(Faults, EventPastAFixedFleetIsFatal)
{
    // Without autoscaling instance 9 never exists in a fleet of 2,
    // so the event would be dropped without a word.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.instances = 2;
    fc.faults.events = parseFaultList("crash@1:0;crash@1:9");
    EXPECT_EXIT(FleetDriver{fc}, ::testing::ExitedWithCode(1),
                "fault event crash@1:9 targets an instance the fleet "
                "never has \\(ids 0\\.\\.1\\)");
    // Autoscaled ids have no upper bound: the check stays off.
    fc.scaling.enabled = true;
    FleetDriver scaled(fc);
}

TEST(Faults, NegativeRetryBudgetIsFatal)
{
    EXPECT_EXIT(
        {
            FleetConfig fc;
            fc.sim = baseSim();
            fc.faults.events = parseFaultList("crash@1:0");
            fc.retry.maxAttempts = -1;
            FleetDriver(fc).run();
        },
        ::testing::ExitedWithCode(1), "maxAttempts");
}

} // namespace
} // namespace duplex
