/**
 * @file
 * The table-driven flag parser (core/flags.hh) and the RunOptions
 * config file on top of it.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/flags.hh"
#include "core/options.hh"

using namespace mgsec;

namespace
{

/** Parse @p args (argv[0] is supplied) against @p t. */
Flags::Status
parse(const Flags &t, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return t.parse(static_cast<int>(argv.size()), argv.data());
}

/** A small table exercising every kind of entry. */
struct Fixture
{
    double scale = 0.5;
    std::uint32_t count = 7;
    std::string out;
    bool quick = false;
    std::vector<std::string> tags;
    std::vector<std::string> inputs;
    std::uint32_t secret = 0;

    Flags
    table(bool positional = false)
    {
        Flags t("usage: prog [options]\n");
        t.add(scaleFlag(scale))
            .add(numberFlag("count", "N", "a count", count, 1u, 100u))
            .add(textFlag("out", "FILE", "output file", out))
            .add(switchFlag("quick", "go fast", quick))
            .add(Flag{"tag", "T", "repeatable tag",
                      [this](const std::string &v) {
                          tags.push_back(v);
                          return true;
                      }}
                     .repeat())
            .add(numberFlag("secret", "N", "", secret, 0u, 9u).hide());
        if (positional) {
            t.positional([this](const std::string &v) {
                inputs.push_back(v);
                return true;
            });
        }
        return t;
    }
};

} // anonymous namespace

TEST(Flags, AppliesValuesInOrder)
{
    Fixture f;
    EXPECT_EQ(parse(f.table(), {"--scale", "0.25", "--count", "12",
                                "--out", "-", "--quick"}),
              Flags::Status::Ok);
    EXPECT_DOUBLE_EQ(f.scale, 0.25);
    EXPECT_EQ(f.count, 12u);
    EXPECT_EQ(f.out, "-");
    EXPECT_TRUE(f.quick);
}

TEST(Flags, RangeChecksNumbers)
{
    Fixture f;
    EXPECT_EQ(parse(f.table(), {"--count", "0"}), Flags::Status::Error);
    EXPECT_EQ(parse(f.table(), {"--count", "101"}),
              Flags::Status::Error);
    EXPECT_EQ(parse(f.table(), {"--count", "-1"}),
              Flags::Status::Error);
    EXPECT_EQ(parse(f.table(), {"--scale", "0"}), Flags::Status::Error);
    EXPECT_EQ(parse(f.table(), {"--scale", "nan"}),
              Flags::Status::Error);
    EXPECT_EQ(f.count, 7u);
    EXPECT_DOUBLE_EQ(f.scale, 0.5);
    EXPECT_EQ(parse(f.table(), {"--count", "100"}), Flags::Status::Ok);
    EXPECT_EQ(f.count, 100u);
}

TEST(Flags, RejectsTrailingJunk)
{
    Fixture f;
    EXPECT_EQ(parse(f.table(), {"--count", "3x"}), Flags::Status::Error);
    EXPECT_EQ(parse(f.table(), {"--scale", "abc"}),
              Flags::Status::Error);
    EXPECT_EQ(parse(f.table(), {"--scale", "0.1 "}),
              Flags::Status::Error);
    EXPECT_EQ(parse(f.table(), {"--count", ""}), Flags::Status::Error);
    EXPECT_EQ(f.count, 7u);
    EXPECT_DOUBLE_EQ(f.scale, 0.5);
}

TEST(Flags, MissingValueIsAnError)
{
    Fixture f;
    EXPECT_EQ(parse(f.table(), {"--out"}), Flags::Status::Error);
    // A switch takes no value, so it may come last.
    EXPECT_EQ(parse(f.table(), {"--quick"}), Flags::Status::Ok);
}

TEST(Flags, UnknownFlagIsAnError)
{
    Fixture f;
    EXPECT_EQ(parse(f.table(), {"--frobnicate", "1"}),
              Flags::Status::Error);
    EXPECT_EQ(parse(f.table(), {"-q"}), Flags::Status::Error);
    EXPECT_EQ(parse(f.table(), {"--"}), Flags::Status::Error);
}

TEST(Flags, BareArgumentNeedsPositional)
{
    Fixture f;
    EXPECT_EQ(parse(f.table(), {"a.json"}), Flags::Status::Error);
    EXPECT_EQ(parse(f.table(true), {"a.json", "--quick", "b.json"}),
              Flags::Status::Ok);
    EXPECT_EQ(f.inputs, (std::vector<std::string>{"a.json", "b.json"}));
}

TEST(Flags, RepeatableFlagAccumulates)
{
    Fixture f;
    EXPECT_EQ(parse(f.table(), {"--tag", "a", "--tag", "b"}),
              Flags::Status::Ok);
    EXPECT_EQ(f.tags, (std::vector<std::string>{"a", "b"}));
    // Any other flag may be given once.
    EXPECT_EQ(parse(f.table(), {"--count", "2", "--count", "3"}),
              Flags::Status::Error);
}

TEST(Flags, HelpStopsParsing)
{
    Fixture f;
    EXPECT_EQ(parse(f.table(), {"--help", "--bogus"}),
              Flags::Status::Help);
    EXPECT_EQ(parse(f.table(), {"-h"}), Flags::Status::Help);
    // A value that looks like --help is still a value.
    EXPECT_EQ(parse(f.table(), {"--out", "--help"}), Flags::Status::Ok);
    EXPECT_EQ(f.out, "--help");
}

TEST(Flags, HiddenFlagParsesButStaysOutOfUsage)
{
    Fixture f;
    EXPECT_EQ(parse(f.table(), {"--secret", "4"}), Flags::Status::Ok);
    EXPECT_EQ(f.secret, 4u);
    std::ostringstream os;
    f.table().usage(os);
    const std::string text = os.str();
    EXPECT_EQ(text.find("--secret"), std::string::npos);
    EXPECT_NE(text.find("--tag T"), std::string::npos);
    EXPECT_NE(text.find("--quick "), std::string::npos);
    EXPECT_EQ(text.rfind("usage: prog [options]\n", 0), 0u);
}

TEST(Flags, UsageQuotesTheBoundDefault)
{
    double scale = 0.6;
    std::ostringstream os;
    Flags("").add(scaleFlag(scale)).usage(os);
    EXPECT_NE(os.str().find("(default 0.6)"), std::string::npos);
}

TEST(Flags, RunOptionsConfigFileGoesThroughTheTable)
{
    const std::string path = "/tmp/mgsec_test_flags.cfg";
    {
        std::ofstream os(path);
        os << "gpus = 8\n"
           << "scale = 0.25  # comment\n"
           << "debug-pad-stall-pct = 5\n";
    }
    RunOptions o;
    std::vector<std::string> args = {"prog", "--config", path,
                                     "--scale", "0.5"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    ASSERT_TRUE(o.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(o.exp.numGpus, 8u);
    EXPECT_DOUBLE_EQ(o.exp.scale, 0.5); // argv after the file wins
    EXPECT_EQ(o.exp.debugPadStallPct, 5u);

    // File values are range-checked like argv values, and config
    // files do not nest.
    {
        std::ofstream os(path);
        os << "gpus = 8x\n";
    }
    RunOptions bad;
    EXPECT_FALSE(bad.loadFile(path));
    EXPECT_FALSE(bad.set("config", path));
    std::remove(path.c_str());

    std::ostringstream usage;
    RunOptions::usage(usage);
    EXPECT_EQ(usage.str().find("debug-pad-stall-pct"),
              std::string::npos);
    EXPECT_NE(usage.str().find("--config FILE"), std::string::npos);
}
