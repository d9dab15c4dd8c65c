/**
 * @file
 * FleetDriver::run() against runReference(), its scan oracle.
 *
 * run() answers every stepping and routing question (who steps
 * next, the busy and overall minimum clocks, the idle march, which
 * instances have a fault due, who retires) from heaps and counts;
 * runReference() answers each by scanning every instance. The two
 * must make the same decisions in the same order: every observer
 * callback — instance up, route, stage, retirement, fault, retry,
 * scale event — is recorded as one line and the two streams must
 * match line for line, for every routing policy, with faults,
 * failure domains, proactive drains and autoscaling on.
 *
 * A seeded spread over the other axes (workloads, systems, models,
 * scheduling policies, chunking, the prefix cache, stage caps) runs
 * the same comparison. Also here: the stage-cap flag of a fleet run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "fleet/fleet.hh"

namespace duplex
{
namespace
{

/** Records every fleet callback as one line of text. */
class TraceRecorder : public FleetObserver
{
  public:
    std::vector<std::string> lines;

    void onInstanceUp(int instance, PicoSec now) override
    {
        add("up %d %lld", instance, ll(now));
    }

    void onRequestRouted(int instance, const Request &request,
                         PicoSec now) override
    {
        add("route %d req %lld at %lld arrival %lld", instance,
            ll(request.id), ll(now), ll(request.arrival));
    }

    void onStage(int instance, const StageObservation &obs) override
    {
        add("stage %d #%lld %lld..%lld tokens %lld", instance,
            ll(obs.index), ll(obs.start), ll(obs.end),
            ll(obs.shape.totalTokens()));
    }

    void onRequestRetired(int instance, const Request &request,
                          PicoSec now) override
    {
        add("retire %d req %lld at %lld", instance, ll(request.id),
            ll(now));
    }

    void onScaleEvent(const ScaleEvent &e) override
    {
        add("scale %d inst %d at %lld accepting %d",
            static_cast<int>(e.kind), e.instance, ll(e.time),
            e.acceptingAfter);
    }

    void onFault(int instance, const FaultEvent &e,
                 PicoSec now) override
    {
        add("fault %s %d at %lld", faultKindName(e.kind), instance,
            ll(now));
    }

    void onRetry(int instance, const Request &request, int attempt,
                 bool dropped, PicoSec at) override
    {
        add("retry %d req %lld attempt %d dropped %d at %lld",
            instance, ll(request.id), attempt, dropped ? 1 : 0,
            ll(at));
    }

  private:
    static long long ll(std::int64_t v)
    {
        return static_cast<long long>(v);
    }

    template <class... Args>
    void add(const char *fmt, Args... args)
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf), fmt, args...);
        lines.emplace_back(buf);
    }
};

struct Traced
{
    FleetResult result;
    std::vector<std::string> trace;
};

Traced
traced(const FleetConfig &fc, bool reference)
{
    FleetDriver driver(fc);
    TraceRecorder rec;
    driver.addObserver(&rec);
    Traced t;
    t.result = reference ? driver.runReference() : driver.run();
    t.trace = std::move(rec.lines);
    return t;
}

/** run() and runReference() agree callback for callback. */
void
expectSameAsScan(const FleetConfig &fc)
{
    const Traced fast = traced(fc, false);
    const Traced scan = traced(fc, true);
    const std::size_t n =
        std::min(fast.trace.size(), scan.trace.size());
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(fast.trace[i], scan.trace[i])
            << "first divergence at callback " << i;
    ASSERT_EQ(fast.trace.size(), scan.trace.size());
    EXPECT_GT(fast.trace.size(), 0u);

    const FleetResult &a = fast.result;
    const FleetResult &b = scan.result;
    EXPECT_EQ(a.metrics.elapsed, b.metrics.elapsed);
    EXPECT_EQ(a.totals.time, b.totals.time);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.requestsRouted, b.requestsRouted);
    EXPECT_EQ(a.requestsRetired, b.requestsRetired);
    EXPECT_EQ(a.peakInstances, b.peakInstances);
    EXPECT_EQ(a.totalDowntime, b.totalDowntime);
    EXPECT_EQ(a.unfinishedRequests, b.unfinishedRequests);
    EXPECT_EQ(a.stageCapped, b.stageCapped);
    ASSERT_EQ(a.perInstance.size(), b.perInstance.size());
    for (std::size_t i = 0; i < a.perInstance.size(); ++i)
        EXPECT_EQ(a.perInstance[i].metrics.elapsed,
                  b.perInstance[i].metrics.elapsed)
            << "instance " << i;
}

SimConfig
baseSim()
{
    SimConfig c;
    c.systemName = "gpu";
    c.model = llama3Config();
    c.maxBatch = 8;
    c.workload.meanInputLen = 128;
    c.workload.meanOutputLen = 24;
    c.numRequests = 96;
    c.warmupRequests = 4;
    c.maxStages = 200000;
    return c;
}

/** Open-loop sessions into an autoscaled fleet with every fault
 *  process on: random crashes and stragglers, heavy stragglers
 *  drained, correlated domain crashes, retries. */
FleetConfig
faultedFleet(const std::string &policy)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workloadName = "session";
    fc.sim.workload.qps = 10.0;
    fc.sim.workload.sessionTurns = 3;
    fc.sim.workload.meanThinkSec = 0.2;
    fc.sim.prefixCache.budgetBytes = 256ll << 20;
    fc.instances = 3;
    fc.policy = policy;
    fc.scaling.enabled = true;
    fc.scaling.minInstances = 2;
    fc.scaling.maxInstances = 6;
    fc.scaling.upQpsPerInstance = 3.0;
    fc.scaling.downQpsPerInstance = 2.0;
    fc.scaling.windowSec = 1.0;
    fc.scaling.cooldownSec = 0.5;
    fc.faults.mtbfSec = 1.5;
    fc.faults.mttrSec = 0.3;
    fc.faults.stragglerFraction = 0.3;
    fc.faults.stragglerFactor = 3.0;
    fc.faults.drainFactorThreshold = 2.5;
    fc.faults.numDomains = 2;
    fc.faults.domainMtbfSec = 3.0;
    fc.faults.domainMttrSec = 0.2;
    fc.retry.maxAttempts = 2;
    return fc;
}

TEST(Fleet, StepOrderMatchesScanForEveryPolicy)
{
    for (const std::string &policy : registeredRoutingPolicies()) {
        SCOPED_TRACE(policy);
        {
            SCOPED_TRACE("faults, domains, drains, autoscaling");
            const FleetConfig fc = faultedFleet(policy);
            const FleetResult r = FleetDriver(fc).run();
            EXPECT_GT(r.crashes, 0);
            EXPECT_GT(r.scaleUps + r.scaleDowns, 0);
            expectSameAsScan(fc);
        }
        {
            // The lazy idle march: fault-free, open loop, a
            // diurnal load that scales the fleet up and drains it.
            SCOPED_TRACE("fault-free diurnal autoscaling");
            FleetConfig fc;
            fc.sim = baseSim();
            fc.sim.workloadName = "diurnal";
            fc.sim.workload.diurnalLowQps = 0.5;
            fc.sim.workload.diurnalHighQps = 24.0;
            fc.sim.workload.diurnalPeriodSec = 8.0;
            fc.sim.workload.numSessions = 5;
            fc.instances = 2;
            fc.policy = policy;
            fc.scaling.enabled = true;
            fc.scaling.minInstances = 1;
            fc.scaling.maxInstances = 5;
            fc.scaling.upQpsPerInstance = 4.0;
            fc.scaling.downQpsPerInstance = 2.0;
            fc.scaling.windowSec = 1.0;
            fc.scaling.cooldownSec = 0.5;
            expectSameAsScan(fc);
        }
        {
            // Closed loop with crashes: the untimed stream routes
            // at the least clock, retries gate and march.
            SCOPED_TRACE("closed loop with crashes");
            FleetConfig fc;
            fc.sim = baseSim();
            fc.instances = 3;
            fc.policy = policy;
            fc.faults.events = parseFaultList(
                "crash@0.05:1:0.2; crash@0.3:0:0.05; degrade@0.1:2:0.5:3");
            fc.faults.drainFactorThreshold = 2.0;
            expectSameAsScan(fc);
        }
        {
            SCOPED_TRACE("stage-capped open loop");
            FleetConfig fc;
            fc.sim = baseSim();
            fc.sim.workload.qps = 40.0;
            fc.sim.maxStages = 60;
            fc.instances = 4;
            fc.policy = policy;
            expectSameAsScan(fc);
        }
    }
}

TEST(Fleet, StepOrderMatchesScanOnSeededConfigs)
{
    // A seeded spread over the other axes the fleet loop meets:
    // workloads, systems, scheduling policies, chunked prefill, the
    // prefix cache, stage caps, autoscaling and the fault processes.
    const std::vector<std::string> workloads = {
        "synthetic", "bursty", "diurnal", "session", "chat", "mixed"};
    const std::vector<std::string> policies =
        registeredRoutingPolicies();
    const std::vector<std::string> scheds = {"fcfs", "priority",
                                             "ttft-protect"};
    for (int seed = 0; seed < 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(0x5eed0000u + static_cast<std::uint64_t>(seed));
        const auto pick = [&rng](std::size_t n) {
            return static_cast<std::size_t>(rng.next() % n);
        };
        FleetConfig fc;
        fc.sim = baseSim();
        fc.sim.systemName = pick(3) == 0 ? "duplex-pe" : "gpu";
        if (pick(2))
            fc.sim.model = mixtralConfig();
        fc.sim.maxBatch = 4 + static_cast<int>(pick(16));
        fc.sim.workloadName = workloads[pick(workloads.size())];
        fc.sim.workload.qps =
            fc.sim.workloadName == "synthetic" && pick(4) == 0
                ? 0.0
                : 2.0 + static_cast<double>(pick(30));
        fc.sim.workload.meanBurstSec = 0.5;
        fc.sim.workload.meanIdleSec = 0.8;
        fc.sim.workload.burstQps = 20.0;
        fc.sim.workload.diurnalLowQps = 0.5;
        fc.sim.workload.diurnalHighQps = 25.0;
        fc.sim.workload.diurnalPeriodSec = 4.0;
        fc.sim.workload.sessionTurns = 2 + static_cast<int>(pick(3));
        fc.sim.workload.meanThinkSec = 0.1;
        fc.sim.workload.numSessions =
            pick(2) ? 3 + static_cast<int>(pick(6)) : 0;
        fc.sim.workload.priorityFrac = pick(2) ? 0.3 : 0.0;
        fc.sim.schedPolicy = scheds[pick(scheds.size())];
        fc.sim.prefillChunkTokens = pick(3) == 0 ? 32 : 0;
        if (pick(3) == 0)
            fc.sim.prefixCache.budgetBytes = 128ll << 20;
        fc.sim.numRequests = 40 + static_cast<int>(pick(60));
        fc.sim.maxStages =
            pick(5) == 0 ? 30 + static_cast<int>(pick(200)) : 200000;
        fc.instances = 1 + static_cast<int>(pick(5));
        fc.policy = policies[pick(policies.size())];
        const bool open = fc.sim.workloadName != "synthetic" ||
                          fc.sim.workload.qps > 0.0;
        if (open && pick(2)) {
            fc.scaling.enabled = true;
            fc.scaling.minInstances = 1;
            fc.scaling.maxInstances = 2 + static_cast<int>(pick(5));
            fc.scaling.upQpsPerInstance = 3.0;
            fc.scaling.downQpsPerInstance = 1.0;
            fc.scaling.windowSec = 1.0;
            fc.scaling.cooldownSec = 0.5;
            fc.scaling.availabilityAware = pick(2);
        }
        const std::size_t faults = pick(4);
        if (faults >= 1) {
            fc.faults.mtbfSec = 0.5 + static_cast<double>(pick(3));
            fc.faults.mttrSec = 0.2;
            fc.retry.maxAttempts = static_cast<int>(pick(4));
        }
        if (faults >= 2) {
            fc.faults.stragglerFraction = 0.3;
            fc.faults.stragglerFactor = 3.0;
            fc.faults.drainFactorThreshold = pick(2) ? 2.5 : 0.0;
        }
        if (faults >= 3) {
            fc.faults.numDomains = 2;
            fc.faults.domainMtbfSec = 2.0;
            fc.faults.domainMttrSec = 0.2;
        }
        expectSameAsScan(fc);
    }
}

TEST(Fleet, CappedFleetIsFlaggedAndDrainedIsNot)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 40.0;
    fc.instances = 2;
    fc.policy = "least-loaded";

    const FleetResult drained = FleetDriver(fc).run();
    EXPECT_FALSE(drained.stageCapped);
    EXPECT_EQ(drained.unfinishedRequests, 0);
    EXPECT_EQ(drained.requestsRetired, fc.sim.numRequests);

    fc.sim.maxStages = 40;
    const FleetResult capped = FleetDriver(fc).run();
    EXPECT_TRUE(capped.stageCapped);
    EXPECT_GT(capped.unfinishedRequests, 0);
    // Every request either retired or is counted unfinished.
    EXPECT_EQ(capped.requestsRetired + capped.unfinishedRequests,
              fc.sim.numRequests);
}

} // namespace
} // namespace duplex
