/**
 * @file
 * WorkloadSource tests: the synthetic source's bit-identical
 * RequestGenerator wrap (the golden RNG-stream contract every
 * engine/split/figure pin rests on), trace replay, the bursty and
 * diurnal arrival processes and scenario mixes.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "workload/registry.hh"
#include "workload/source.hh"

namespace duplex
{
namespace
{

void
expectSameRequest(const Request &a, const Request &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.inputLen, b.inputLen);
    EXPECT_EQ(a.outputLen, b.outputLen);
    EXPECT_EQ(a.arrival, b.arrival);
}

TEST(WorkloadSource, SyntheticMatchesRequestGeneratorExactly)
{
    // The default source must reproduce the pre-registry draw
    // stream bit-for-bit — every golden (engine, split, figure
    // benches) depends on it. Closed and open loop.
    for (double qps : {0.0, 3.0}) {
        WorkloadSpec spec;
        spec.meanInputLen = 640;
        spec.meanOutputLen = 96;
        spec.qps = qps;
        RequestGenerator gen(spec);
        const std::unique_ptr<WorkloadSource> source =
            makeWorkload("synthetic", spec);
        EXPECT_EQ(source->openLoop(), qps > 0.0);
        for (int i = 0; i < 256; ++i)
            expectSameRequest(source->next(), gen.next());
    }
}

TEST(WorkloadSource, SyntheticIsUnbounded)
{
    const std::unique_ptr<WorkloadSource> source =
        makeWorkload("synthetic");
    EXPECT_EQ(source->remaining(), WorkloadSource::kUnbounded);
    source->next();
    EXPECT_EQ(source->remaining(), WorkloadSource::kUnbounded);
}

TEST(WorkloadSource, TraceReplaysTimestampsVerbatim)
{
    WorkloadConfig cfg;
    cfg.qps = 4.0;
    RequestGenerator gen(cfg);
    const std::vector<Request> recorded = gen.take(24);

    TraceSource source("in-memory", recorded);
    EXPECT_TRUE(source.openLoop());
    EXPECT_EQ(source.remaining(), 24);
    for (const Request &expected : recorded)
        expectSameRequest(source.next(), expected);
    EXPECT_EQ(source.remaining(), 0);
}

TEST(WorkloadSource, TraceRejectsDecreasingArrivals)
{
    Request a;
    a.id = 0;
    a.inputLen = a.outputLen = 16;
    a.arrival = 1000;
    Request b = a;
    b.id = 1;
    b.arrival = 500;
    EXPECT_EXIT({ TraceSource("bad", {a, b}); },
                ::testing::ExitedWithCode(1), "non-decreasing");
}

TEST(WorkloadSource, BurstyArrivalsMonotoneAndDeterministic)
{
    WorkloadSpec spec;
    spec.burstQps = 20.0;
    spec.idleQps = 0.5;
    spec.meanBurstSec = 1.0;
    spec.meanIdleSec = 3.0;
    BurstySource a(spec);
    BurstySource b(spec);
    PicoSec prev = -1;
    for (int i = 0; i < 400; ++i) {
        const Request ra = a.next();
        expectSameRequest(ra, b.next());
        EXPECT_GT(ra.arrival, prev);
        prev = ra.arrival;
        EXPECT_GE(ra.inputLen, spec.minLen);
        EXPECT_GE(ra.outputLen, spec.minLen);
    }
}

TEST(WorkloadSource, BurstyIsBurstierThanPoisson)
{
    // A two-state MMPP over-disperses inter-arrival gaps: their
    // coefficient of variation must clearly exceed the exponential
    // distribution's 1.0.
    WorkloadSpec spec;
    spec.burstQps = 30.0;
    spec.idleQps = 0.2;
    spec.meanBurstSec = 1.0;
    spec.meanIdleSec = 5.0;
    BurstySource source(spec);
    PicoSec prev = 0;
    double sum = 0.0;
    double sq_sum = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const PicoSec arrival = source.next().arrival;
        const double gap = psToSec(arrival - prev);
        prev = arrival;
        sum += gap;
        sq_sum += gap * gap;
    }
    const double mean = sum / n;
    const double var = sq_sum / n - mean * mean;
    const double cv = std::sqrt(var) / mean;
    EXPECT_GT(cv, 1.5);
    // The long-run rate sits strictly between the two state rates.
    const double rate = 1.0 / mean;
    EXPECT_GT(rate, spec.idleQps);
    EXPECT_LT(rate, spec.burstQps);
}

TEST(WorkloadSource, DiurnalRampInterpolatesPiecewiseLinearly)
{
    WorkloadSpec spec;
    spec.diurnalLowQps = 2.0;
    spec.diurnalHighQps = 10.0;
    spec.diurnalPeriodSec = 40.0;
    DiurnalSource source(spec);
    // Default ramp: low at 0, peak at period/2, linear both ways,
    // periodic.
    EXPECT_DOUBLE_EQ(source.qpsAt(0), 2.0);
    EXPECT_DOUBLE_EQ(source.qpsAt(secToPs(20.0)), 10.0);
    EXPECT_DOUBLE_EQ(source.qpsAt(secToPs(10.0)), 6.0);
    EXPECT_DOUBLE_EQ(source.qpsAt(secToPs(30.0)), 6.0);
    EXPECT_DOUBLE_EQ(source.qpsAt(secToPs(40.0)), 2.0);
    EXPECT_DOUBLE_EQ(source.qpsAt(secToPs(60.0)), 10.0);
}

TEST(WorkloadSource, DiurnalExplicitBreakpointsHonored)
{
    WorkloadSpec spec;
    spec.diurnalPeriodSec = 10.0;
    spec.qpsRamp = {{0.0, 1.0}, {2.0, 9.0}, {6.0, 5.0}};
    DiurnalSource source(spec);
    EXPECT_DOUBLE_EQ(source.qpsAt(secToPs(2.0)), 9.0);
    EXPECT_DOUBLE_EQ(source.qpsAt(secToPs(4.0)), 7.0);
    // Wrap segment: 5.0 at t=6 back to 1.0 at t=10 (== 0).
    EXPECT_DOUBLE_EQ(source.qpsAt(secToPs(8.0)), 3.0);
}

TEST(WorkloadSource, DiurnalArrivalsTrackTheRamp)
{
    WorkloadSpec spec;
    spec.diurnalLowQps = 1.0;
    spec.diurnalHighQps = 15.0;
    spec.diurnalPeriodSec = 60.0;
    DiurnalSource source(spec);
    // Arrivals in the peak-centered half of each period must far
    // outnumber those in the trough-centered half. The triangle
    // ramp averages (1+15)/2 + 15/2 = 11.5 req/s over the peak
    // half vs 4.5 over the trough half, a ~2.6x density ratio.
    std::int64_t peak_half = 0;
    std::int64_t trough_half = 0;
    PicoSec prev = -1;
    for (int i = 0; i < 3000; ++i) {
        const Request r = source.next();
        EXPECT_GT(r.arrival, prev);
        prev = r.arrival;
        const double sec =
            std::fmod(psToSec(r.arrival), spec.diurnalPeriodSec);
        if (sec >= 15.0 && sec < 45.0)
            ++peak_half;
        else
            ++trough_half;
    }
    EXPECT_GT(peak_half, 2 * trough_half);
}

TEST(WorkloadSource, MixtureDrawsEveryClassClosedAndOpenLoop)
{
    for (double qps : {0.0, 6.0}) {
        WorkloadConfig base;
        base.qps = qps;
        MixtureSource source(
            "mix-test", base,
            {{"short", 0.5, 64, 32, 0.1},
             {"long", 0.5, 4096, 2048, 0.1}});
        EXPECT_EQ(source.openLoop(), qps > 0.0);
        int shorts = 0;
        int longs = 0;
        PicoSec prev = 0;
        for (int i = 0; i < 500; ++i) {
            const Request r = source.next();
            if (r.inputLen < 1024)
                ++shorts;
            else
                ++longs;
            if (qps > 0.0) {
                EXPECT_GT(r.arrival, prev);
                prev = r.arrival;
            } else {
                EXPECT_EQ(r.arrival, 0);
            }
        }
        EXPECT_GT(shorts, 100);
        EXPECT_GT(longs, 100);
    }
}

TEST(WorkloadSource, ScenarioPresetsShapeTheLengthMix)
{
    // Each named scenario must express its documented Lin/Lout
    // profile (means within sampling noise of the preset).
    struct Expectation
    {
        const char *id;
        double meanIn;
        double meanOut;
    };
    for (const Expectation &e :
         {Expectation{"chat", 512, 256},
          Expectation{"long-prefill-summarize", 8192, 256},
          Expectation{"long-decode-codegen", 512, 4096}}) {
        SCOPED_TRACE(e.id);
        const std::unique_ptr<WorkloadSource> source =
            makeWorkload(e.id);
        double in_sum = 0.0;
        double out_sum = 0.0;
        const int n = 3000;
        for (int i = 0; i < n; ++i) {
            const Request r = source->next();
            in_sum += static_cast<double>(r.inputLen);
            out_sum += static_cast<double>(r.outputLen);
        }
        EXPECT_NEAR(in_sum / n, e.meanIn, 0.05 * e.meanIn);
        EXPECT_NEAR(out_sum / n, e.meanOut, 0.05 * e.meanOut);
    }
}

TEST(WorkloadSource, MixedScenarioCoversTheComponentModes)
{
    const std::unique_ptr<WorkloadSource> source =
        makeWorkload("mixed");
    std::int64_t prefill_heavy = 0; // summarize-shaped draws
    std::int64_t decode_heavy = 0;  // codegen-shaped draws
    std::int64_t chat_like = 0;
    for (int i = 0; i < 2000; ++i) {
        const Request r = source->next();
        if (r.inputLen > 4096)
            ++prefill_heavy;
        else if (r.outputLen > 2048)
            ++decode_heavy;
        else
            ++chat_like;
    }
    EXPECT_GT(prefill_heavy, 200);
    EXPECT_GT(decode_heavy, 200);
    EXPECT_GT(chat_like, 600);
}

TEST(WorkloadSource, SessionStampingLeavesTheDrawStreamIntact)
{
    // numSessions stamps sessionId = id % n with pure arithmetic —
    // the drawn lengths and arrivals must be bit-identical to a
    // session-less stream (no RNG draws added or reordered).
    WorkloadSpec plain;
    plain.qps = 6.0;
    WorkloadSpec sessions = plain;
    sessions.numSessions = 4;

    const auto a = makeWorkload("synthetic", plain);
    const auto b = makeWorkload("synthetic", sessions);
    for (int i = 0; i < 64; ++i) {
        const Request ra = a->next();
        const Request rb = b->next();
        EXPECT_EQ(ra.inputLen, rb.inputLen);
        EXPECT_EQ(ra.outputLen, rb.outputLen);
        EXPECT_EQ(ra.arrival, rb.arrival);
        EXPECT_EQ(ra.sessionId, -1);
        EXPECT_EQ(rb.sessionId, rb.id % 4);
    }
}

TEST(WorkloadSource, DescribeNamesTheSource)
{
    for (const std::string &id : registeredWorkloads()) {
        if (id == "trace")
            continue; // needs a file; covered in test_registry
        SCOPED_TRACE(id);
        const std::unique_ptr<WorkloadSource> source =
            makeWorkload(id);
        EXPECT_EQ(source->name(), id);
        EXPECT_FALSE(source->describe().empty());
    }
}

} // namespace
} // namespace duplex
