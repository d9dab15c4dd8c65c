/**
 * @file
 * Unit tests for the flag parser.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/argparse.hh"

namespace duplex
{
namespace
{

std::vector<char *>
argvOf(std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (auto &a : args)
        argv.push_back(a.data());
    return argv;
}

TEST(ArgParser, DefaultsApply)
{
    ArgParser p;
    p.addFlag("model", "model name", "mixtral");
    std::vector<std::string> args{"prog"};
    auto argv = argvOf(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(p.getString("model"), "mixtral");
}

TEST(ArgParser, EqualsForm)
{
    ArgParser p;
    p.addFlag("batch", "batch size", "32");
    std::vector<std::string> args{"prog", "--batch=64"};
    auto argv = argvOf(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(p.getInt("batch"), 64);
}

TEST(ArgParser, SpaceForm)
{
    ArgParser p;
    p.addFlag("qps", "arrival rate", "0");
    std::vector<std::string> args{"prog", "--qps", "12.5"};
    auto argv = argvOf(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_DOUBLE_EQ(p.getDouble("qps"), 12.5);
}

TEST(ArgParser, BoolValues)
{
    ArgParser p;
    p.addFlag("a", "", "true");
    p.addFlag("b", "", "0");
    p.addFlag("c", "", "yes");
    std::vector<std::string> args{"prog"};
    auto argv = argvOf(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(p.getBool("a"));
    EXPECT_FALSE(p.getBool("b"));
    EXPECT_TRUE(p.getBool("c"));
}

TEST(ArgParser, BareBooleanSwitch)
{
    ArgParser p;
    p.addFlag("list-systems", "", "false");
    p.addFlag("system", "", "");
    std::vector<std::string> args{"prog", "--list-systems"};
    auto argv = argvOf(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(p.getBool("list-systems"));
}

TEST(ArgParser, BareBooleanSwitchBeforeAnotherFlag)
{
    ArgParser p;
    p.addFlag("verbose", "", "false");
    p.addFlag("batch", "", "32");
    std::vector<std::string> args{"prog", "--verbose",
                                  "--batch=8"};
    auto argv = argvOf(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(p.getBool("verbose"));
    EXPECT_EQ(p.getInt("batch"), 8);
}

TEST(ArgParser, BooleanFlagStillTakesExplicitValue)
{
    ArgParser p;
    p.addFlag("verbose", "", "false");
    std::vector<std::string> args{"prog", "--verbose", "false"};
    auto argv = argvOf(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_FALSE(p.getBool("verbose"));
}

TEST(ArgParser, BareSwitchAfterNonCanonicalValue)
{
    // Boolean-ness comes from the declared default, not the live
    // value: setting "yes" must not demote the flag to value-taking.
    ArgParser p;
    p.addFlag("verbose", "", "false");
    std::vector<std::string> args{"prog", "--verbose=yes",
                                  "--verbose"};
    auto argv = argvOf(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(p.getBool("verbose"));
}

TEST(ArgParser, BareSwitchDoesNotSwallowNonBooleanToken)
{
    // "--verbose mixtral" must not silently disable the switch;
    // the stray token surfaces as a positional-argument error.
    ArgParser p;
    p.addFlag("verbose", "", "false");
    std::vector<std::string> args{"prog", "--verbose", "mixtral"};
    auto argv = argvOf(args);
    EXPECT_EXIT(p.parse(static_cast<int>(argv.size()),
                        argv.data()),
                ::testing::ExitedWithCode(1),
                "positional arguments are not supported");
}

TEST(ArgParser, MultipleFlags)
{
    ArgParser p;
    p.addFlag("x", "", "1");
    p.addFlag("y", "", "2");
    std::vector<std::string> args{"prog", "--y=20", "--x", "10"};
    auto argv = argvOf(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(p.getInt("x"), 10);
    EXPECT_EQ(p.getInt("y"), 20);
}

TEST(ArgParser, NumericValuesMustParseInFull)
{
    // Each bad value is one fatal line naming the flag and value.
    const std::vector<std::pair<std::string, std::string>> bad_ints = {
        {"12k", "'12k' is not a 64-bit integer"},
        {"16x", "'16x' is not a 64-bit integer"},
        {"abc", "'abc' is not a 64-bit integer"},
        {"", "'' is not a 64-bit integer"},
        {"99999999999999999999", "'99999999999999999999' is not"},
        {"1.5", "'1.5' is not a 64-bit integer"}};
    for (const auto &[value, message] : bad_ints) {
        SCOPED_TRACE(value);
        ArgParser p;
        p.addFlag("requests", "", "8");
        std::string arg = "--requests=" + value;
        std::vector<std::string> args{"prog", arg};
        auto argv = argvOf(args);
        p.parse(static_cast<int>(argv.size()), argv.data());
        EXPECT_EXIT(p.getInt("requests"), ::testing::ExitedWithCode(1),
                    "fatal: flag --requests: " + message);
    }
    for (const std::string value :
         {"nan", "inf", "-inf", "1e999", "1e-999", "4qps", "", "abc"}) {
        SCOPED_TRACE(value);
        ArgParser p;
        p.addFlag("qps", "", "0");
        std::string arg = "--qps=" + value;
        std::vector<std::string> args{"prog", arg};
        auto argv = argvOf(args);
        p.parse(static_cast<int>(argv.size()), argv.data());
        EXPECT_EXIT(p.getDouble("qps"), ::testing::ExitedWithCode(1),
                    "fatal: flag --qps: '" + value +
                        "' is not a finite number");
    }
}

TEST(ArgParser, NumericValuesInRangeParse)
{
    ArgParser p;
    p.addFlag("n", "", "-7");
    p.addFlag("x", "", "1e-3");
    p.addFlag("big", "", "9223372036854775807");
    std::vector<std::string> args{"prog"};
    auto argv = argvOf(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(p.getInt("n"), -7);
    EXPECT_DOUBLE_EQ(p.getDouble("x"), 1e-3);
    EXPECT_EQ(p.getInt("big"), INT64_MAX);
}

} // namespace
} // namespace duplex
