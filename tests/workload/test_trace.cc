/**
 * @file
 * Trace I/O tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "workload/generator.hh"
#include "workload/trace.hh"

namespace duplex
{
namespace
{

TEST(Trace, ParsesBasicLines)
{
    std::istringstream in("# comment\n"
                          "0.0,512,256\n"
                          "\n"
                          "0.5,1024,128\n");
    const auto reqs = parseTrace(in);
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[0].arrival, 0);
    EXPECT_EQ(reqs[0].inputLen, 512);
    EXPECT_EQ(reqs[0].outputLen, 256);
    EXPECT_EQ(reqs[1].arrival, secToPs(0.5));
    EXPECT_EQ(reqs[1].id, 1);
}

TEST(Trace, RoundTripThroughWriter)
{
    WorkloadConfig cfg;
    cfg.qps = 5.0;
    RequestGenerator gen(cfg);
    const auto original = gen.take(32);

    std::ostringstream out;
    writeTrace(out, original);
    std::istringstream in(out.str());
    const auto parsed = parseTrace(in);

    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed[i].inputLen, original[i].inputLen);
        EXPECT_EQ(parsed[i].outputLen, original[i].outputLen);
        // Arrival survives to within text round-off (< 1 us).
        EXPECT_NEAR(static_cast<double>(parsed[i].arrival),
                    static_cast<double>(original[i].arrival),
                    1e6);
    }
}

TEST(Trace, SessionIdRoundTripsThroughOptionalColumn)
{
    WorkloadConfig cfg;
    cfg.qps = 5.0;
    RequestGenerator gen(cfg);
    auto original = gen.take(12);
    for (std::size_t i = 0; i < original.size(); ++i)
        original[i].sessionId = static_cast<std::int64_t>(i % 4);

    std::ostringstream out;
    writeTrace(out, original);
    EXPECT_NE(out.str().find("session_id"), std::string::npos);

    std::istringstream in(out.str());
    const auto parsed = parseTrace(in);
    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_EQ(parsed[i].sessionId, original[i].sessionId);
}

TEST(Trace, SessionlessTraceKeepsLegacyFormat)
{
    // A trace recorded without sessions must stay byte-compatible
    // with the pre-session three-column format: no fourth column,
    // the original header, and sessionId = -1 on replay.
    WorkloadConfig cfg;
    cfg.qps = 5.0;
    RequestGenerator gen(cfg);
    const auto original = gen.take(8);

    std::ostringstream out;
    writeTrace(out, original);
    EXPECT_EQ(out.str().find("session_id"), std::string::npos);
    EXPECT_NE(out.str().find("# arrival_sec,input_len,output_len"),
              std::string::npos);

    std::istringstream in(out.str());
    for (const Request &r : parseTrace(in))
        EXPECT_EQ(r.sessionId, -1);
}

TEST(Trace, ThreeColumnLinesStillParse)
{
    // Legacy traces (no session column) replay with sessionId
    // absent; mixed four-column lines pick it up.
    std::istringstream in("0.0,512,256\n"
                          "0.5,1024,128,7\n");
    const auto reqs = parseTrace(in);
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[0].sessionId, -1);
    EXPECT_EQ(reqs[1].sessionId, 7);
}

TEST(Trace, EmptyInputEmptyTrace)
{
    std::istringstream in("# nothing here\n");
    EXPECT_TRUE(parseTrace(in).empty());
}

TEST(Trace, FractionalArrivalPrecision)
{
    std::istringstream in("1.25,16,16\n");
    const auto reqs = parseTrace(in);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].arrival, secToPs(1.25));
}

// ---- error paths: a broken CSV must die with ONE line that names
// ---- the offending line (number and content), not a stack trace
// ---- or a silent misparse.

TEST(TraceErrors, MissingColumnNamesTheLine)
{
    std::istringstream in("0.0,512,256\n"
                          "0.5,1024\n");
    EXPECT_EXIT({ parseTrace(in); },
                ::testing::ExitedWithCode(1),
                "trace line 2: '0.5,1024'");
}

TEST(TraceErrors, MalformedNumberNamesFieldAndLine)
{
    std::istringstream in("0.0,512,256\n"
                          "0.5,banana,128\n");
    EXPECT_EXIT({ parseTrace(in); },
                ::testing::ExitedWithCode(1),
                "trace line 2.*bad input_len 'banana'");
}

TEST(TraceErrors, TrailingGarbageInNumberIsAnError)
{
    // '1.5x' must not silently parse as 1.5.
    std::istringstream in("1.5x,512,256\n");
    EXPECT_EXIT({ parseTrace(in); },
                ::testing::ExitedWithCode(1),
                "trace line 1.*bad arrival_sec '1.5x'");
}

TEST(TraceErrors, TooManyColumnsIsAnError)
{
    // Five columns is the full format (session + priority); a
    // sixth is an error.
    std::istringstream in("0.0,512,256,7,99,1\n");
    EXPECT_EXIT({ parseTrace(in); },
                ::testing::ExitedWithCode(1),
                "trace line 1.*too many columns");
}

TEST(TraceErrors, NonMonotoneArrivalNamesBothLines)
{
    std::istringstream in("2.0,512,256\n"
                          "1.0,512,256\n");
    EXPECT_EXIT({ parseTrace(in); },
                ::testing::ExitedWithCode(1),
                "trace line 2.*non-decreasing");
}

TEST(TraceErrors, NonPositiveLengthIsAnError)
{
    std::istringstream in("0.0,0,256\n");
    EXPECT_EXIT({ parseTrace(in); },
                ::testing::ExitedWithCode(1),
                "trace line 1.*lengths must be positive");
}

TEST(TraceErrors, NonFiniteNumberIsAnError)
{
    std::istringstream in("nan,256,64\n");
    EXPECT_EXIT({ parseTrace(in); }, ::testing::ExitedWithCode(1),
                "trace line 1.*bad arrival_sec 'nan' .not a finite");
}

TEST(TraceErrors, LengthBeyondAnExactWholeIsAnError)
{
    // 1e300 must not reach the integer cast.
    std::istringstream in("0,1e300,64\n");
    EXPECT_EXIT({ parseTrace(in); }, ::testing::ExitedWithCode(1),
                "trace line 1.*bad input_len '1e300' .not a whole");
}

TEST(TraceErrors, FractionalLengthIsAnError)
{
    // 256.7 must not silently run as a 256-token prompt.
    std::istringstream in("0,256.7,64\n");
    EXPECT_EXIT({ parseTrace(in); }, ::testing::ExitedWithCode(1),
                "trace line 1.*bad input_len '256.7' .not a whole");
}

TEST(TraceErrors, SessionIdBeyondAnExactWholeIsAnError)
{
    std::istringstream in("0,256,64,1e30\n");
    EXPECT_EXIT({ parseTrace(in); }, ::testing::ExitedWithCode(1),
                "trace line 1.*bad session_id '1e30' .not a whole");
}

TEST(TraceErrors, TimeBeyondClockRangeIsAnError)
{
    // 1e7 s is past the int64 picosecond clock (~9.2e6 s) and must
    // not reach the cast in secToPs; the largest time that fits does.
    std::istringstream in("1e7,256,64\n");
    EXPECT_EXIT({ parseTrace(in); }, ::testing::ExitedWithCode(1),
                "trace line 1.*bad arrival_sec '1e7' .beyond the "
                "simulated clock range");
    std::istringstream negative("-1e7,256,64\n");
    EXPECT_EXIT({ parseTrace(negative); }, ::testing::ExitedWithCode(1),
                "bad arrival_sec '-1e7' .beyond the simulated clock");
    std::istringstream edge("9223372,256,64\n");
    const std::vector<Request> requests = parseTrace(edge);
    ASSERT_EQ(requests.size(), 1u);
    EXPECT_EQ(requests[0].arrival, secToPs(9223372.0));
}

TEST(TraceErrors, MissingFileNamesThePath)
{
    EXPECT_EXIT({ loadTrace("/no/such/trace.csv"); },
                ::testing::ExitedWithCode(1),
                "cannot open trace: /no/such/trace.csv");
}

} // namespace
} // namespace duplex
