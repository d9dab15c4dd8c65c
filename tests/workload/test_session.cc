/**
 * @file
 * SessionSource tests — the multi-turn workload's contracts:
 *
 *  - Turns per session are capped at sessionTurns; each follow-up
 *    prompt grows by the full history (shared prefix + every prior
 *    prompt and completion) plus freshly drawn user tokens.
 *  - Turn content is a pure function of (seed, session, turn):
 *    retiring a turn later shifts only its successor's arrival,
 *    never its lengths — the interleaving-independence the driver
 *    feedback channel relies on for byte-identical double runs.
 *  - ArrivalQueue's lookahead is handed back on retirement, so a
 *    follow-up turn that precedes the buffered request re-emits in
 *    arrival order (arrivals stay non-decreasing).
 *  - Opt-in: only the session source wants retirements; notifying
 *    any other source is a no-op, keeping every golden intact.
 */

#include <gtest/gtest.h>

#include <map>

#include "sched/arrivals.hh"
#include "workload/registry.hh"
#include "workload/source.hh"

namespace duplex
{
namespace
{

WorkloadSpec
sessionSpec()
{
    WorkloadSpec spec;
    spec.qps = 2.0; // fresh sessions/s
    spec.meanInputLen = 128;
    spec.meanOutputLen = 48;
    spec.sessionTurns = 3;
    spec.sharedPrefixTokens = 64;
    spec.meanThinkSec = 0.0; // think time 0: arrival == retire time
    return spec;
}

TEST(SessionSource, RegisteredAndWantsRetirements)
{
    EXPECT_TRUE(WorkloadRegistry::instance().contains("session"));
    const auto session = makeWorkload("session", sessionSpec());
    EXPECT_TRUE(session->openLoop());
    EXPECT_TRUE(session->wantsRetirements());
    EXPECT_EQ(session->remaining(), WorkloadSource::kUnbounded);

    // The feedback channel is strictly opt-in.
    const auto synthetic = makeWorkload("synthetic", WorkloadSpec{});
    EXPECT_FALSE(synthetic->wantsRetirements());
}

TEST(SessionSource, FreshSessionsOpenWithTheSharedPrefix)
{
    const auto source = makeWorkload("session", sessionSpec());
    PicoSec last_arrival = 0;
    for (std::int64_t i = 0; i < 32; ++i) {
        const Request r = source->next();
        // No retirements yet: only first turns, one per session.
        EXPECT_EQ(r.sessionId, i);
        EXPECT_GT(r.inputLen, sessionSpec().sharedPrefixTokens);
        EXPECT_GT(r.outputLen, 0);
        EXPECT_GE(r.arrival, last_arrival);
        last_arrival = r.arrival;
    }
}

TEST(SessionSource, TurnsGrowAndStopAtTheCap)
{
    const WorkloadSpec spec = sessionSpec();
    const auto source = makeWorkload("session", spec);
    std::map<std::int64_t, int> turns;
    std::map<std::int64_t, std::int64_t> last_input;
    PicoSec last_arrival = 0;
    for (int i = 0; i < 256; ++i) {
        const Request r = source->next();
        EXPECT_GE(r.arrival, last_arrival);
        last_arrival = r.arrival;
        const int turn = turns[r.sessionId]++;
        if (turn > 0) {
            // Prompt = full history + new user tokens: strictly
            // longer than the previous turn's prompt.
            EXPECT_GT(r.inputLen, last_input[r.sessionId])
                << "session " << r.sessionId << " turn " << turn;
        }
        last_input[r.sessionId] = r.inputLen;
        // Retire immediately (think 0): the next turn arrives now.
        source->notifyRetired(r, r.arrival);
    }
    for (const auto &[session, count] : turns)
        EXPECT_LE(count, spec.sessionTurns) << "session " << session;
    // The closed loop actually closed: some session ran all turns.
    int finished = 0;
    for (const auto &[session, count] : turns)
        finished += count == spec.sessionTurns ? 1 : 0;
    EXPECT_GT(finished, 0);
}

TEST(SessionSource, TurnContentIsIndependentOfRetirementTime)
{
    // Retiring the same turn at two different times must shift the
    // follow-up's arrival by exactly the difference and change
    // nothing else — the draws are a pure function of
    // (seed, session, turn), not of driver timing.
    WorkloadSpec spec = sessionSpec();
    spec.meanThinkSec = 1.0;
    const auto a = makeWorkload("session", spec);
    const auto b = makeWorkload("session", spec);

    const Request first_a = a->next();
    const Request first_b = b->next();
    EXPECT_EQ(first_a.inputLen, first_b.inputLen);

    const PicoSec now_a = first_a.arrival + 1000;
    const PicoSec shift = 7'000'000'000'000; // 7 s later
    a->notifyRetired(first_a, now_a);
    b->notifyRetired(first_b, now_a + shift);

    // Drain until each source emits session 0's second turn.
    auto second_of = [](WorkloadSource &src) {
        for (;;) {
            Request r = src.next();
            if (r.sessionId == 0)
                return r;
        }
    };
    const Request second_a = second_of(*a);
    const Request second_b = second_of(*b);
    EXPECT_EQ(second_a.inputLen, second_b.inputLen);
    EXPECT_EQ(second_a.outputLen, second_b.outputLen);
    EXPECT_EQ(second_b.arrival - second_a.arrival, shift);
    EXPECT_GT(second_a.arrival, now_a); // think time elapsed
}

TEST(SessionSource, RetirementReabsorbsTheLookaheadInOrder)
{
    ArrivalQueue queue(makeWorkload("session", sessionSpec()), 8);
    const Request first = queue.pop(0); // session 0, turn 0

    // Reading the next arrival buffers session 1's first turn...
    const PicoSec buffered = queue.nextArrival();
    EXPECT_GT(buffered, first.arrival);

    // ...but retiring turn 0 with think 0 creates session 0's
    // second turn at the retire time, BEFORE the buffered request:
    // the queue hands the buffer back and the source re-emits both
    // in order, within the same request budget.
    queue.notifyRetired(first, first.arrival);
    EXPECT_EQ(queue.size(), 7u);
    const Request second = queue.pop(first.arrival);
    EXPECT_EQ(second.sessionId, 0);
    EXPECT_EQ(second.arrival, first.arrival);

    const Request third = queue.pop(buffered);
    EXPECT_EQ(third.sessionId, 1);
    EXPECT_EQ(third.arrival, buffered);
}

TEST(SessionSource, DoubleRunsAreBitIdentical)
{
    const auto a = makeWorkload("session", sessionSpec());
    const auto b = makeWorkload("session", sessionSpec());
    for (int i = 0; i < 200; ++i) {
        const Request ra = a->next();
        const Request rb = b->next();
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.sessionId, rb.sessionId);
        EXPECT_EQ(ra.inputLen, rb.inputLen);
        EXPECT_EQ(ra.outputLen, rb.outputLen);
        EXPECT_EQ(ra.arrival, rb.arrival);
        if (i % 3 == 0) {
            a->notifyRetired(ra, ra.arrival + 500);
            b->notifyRetired(rb, rb.arrival + 500);
        }
    }
}

} // namespace
} // namespace duplex
