#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace satdiag {
namespace {

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  CliArgs cli;
  std::string error;
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data(), error));
  return cli;
}

TEST(CliTest, SpaceSeparatedValue) {
  auto cli = parse({"--circuit", "s1423_like"});
  EXPECT_EQ(cli.get_string("circuit", ""), "s1423_like");
}

TEST(CliTest, EqualsSeparatedValue) {
  auto cli = parse({"--tests=16"});
  EXPECT_EQ(cli.get_int("tests", 0), 16);
}

TEST(CliTest, BareBooleanFlag) {
  auto cli = parse({"--quick", "--seed", "7"});
  EXPECT_TRUE(cli.get_bool("quick", false));
  EXPECT_EQ(cli.get_int("seed", 0), 7);
}

TEST(CliTest, DefaultsWhenMissing) {
  auto cli = parse({});
  EXPECT_EQ(cli.get_string("name", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(cli.get_bool("b", false));
}

TEST(CliTest, DoubleParsing) {
  auto cli = parse({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.25);
}

TEST(CliTest, BoolFalseSpellings) {
  auto cli = parse({"--a=false", "--b=0", "--c=true"});
  EXPECT_FALSE(cli.get_bool("a", true));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
}

TEST(CliTest, PositionalArguments) {
  auto cli = parse({"file1", "--k", "2", "file2"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1");
  EXPECT_EQ(cli.positional()[1], "file2");
}

TEST(CliTest, UnusedReportsUnqueriedFlags) {
  auto cli = parse({"--typo", "1", "--used", "2"});
  EXPECT_EQ(cli.get_int("used", 0), 2);
  const auto unused = cli.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// --- strict value parsing (PR 10 regression: "--k 2x" used to parse as 2,
// "--limit abc" as 0.0) --------------------------------------------------

TEST(CliTest, StrictIntRejectsTrailingGarbage) {
  auto cli = parse({"--k", "2x"});
  EXPECT_THROW(cli.get_int("k", 0), CliUsageError);
}

TEST(CliTest, StrictIntRejectsNonNumeric) {
  auto cli = parse({"--k", "abc"});
  EXPECT_THROW(cli.get_int("k", 0), CliUsageError);
}

TEST(CliTest, StrictIntRejectsFloatSpelling) {
  auto cli = parse({"--k", "2.5"});
  EXPECT_THROW(cli.get_int("k", 0), CliUsageError);
}

TEST(CliTest, StrictIntRejectsEmptyAndWhitespace) {
  auto cli = parse({"--a=", "--b", " 2"});
  EXPECT_THROW(cli.get_int("a", 0), CliUsageError);
  EXPECT_THROW(cli.get_int("b", 0), CliUsageError);
}

TEST(CliTest, StrictIntRejectsOverflow) {
  auto cli = parse({"--k", "99999999999999999999999"});
  EXPECT_THROW(cli.get_int("k", 0), CliUsageError);
}

TEST(CliTest, StrictIntAcceptsSigns) {
  auto cli = parse({"--a", "-7", "--b", "+7"});
  EXPECT_EQ(cli.get_int("a", 0), -7);
  EXPECT_EQ(cli.get_int("b", 0), 7);
}

TEST(CliTest, StrictIntErrorNamesFlagAndValue) {
  auto cli = parse({"--k", "2x"});
  try {
    cli.get_int("k", 0);
    FAIL() << "expected CliUsageError";
  } catch (const CliUsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--k"), std::string::npos) << what;
    EXPECT_NE(what.find("2x"), std::string::npos) << what;
  }
}

TEST(CliTest, StrictDoubleRejectsTrailingGarbage) {
  auto cli = parse({"--limit", "1.5s"});
  EXPECT_THROW(cli.get_double("limit", 0.0), CliUsageError);
}

TEST(CliTest, StrictDoubleRejectsNonNumeric) {
  auto cli = parse({"--limit", "abc"});
  EXPECT_THROW(cli.get_double("limit", 0.0), CliUsageError);
}

TEST(CliTest, StrictDoubleRejectsInfNanAndHex) {
  for (const char* bad : {"inf", "nan", "INF", "0x10", "1e999"}) {
    auto cli = parse({"--limit", bad});
    EXPECT_THROW(cli.get_double("limit", 0.0), CliUsageError) << bad;
  }
}

TEST(CliTest, StrictDoubleAcceptsScientificAndSigns) {
  auto cli = parse({"--a", "2.5e-3", "--b", "-0.25", "--c", ".5"});
  EXPECT_DOUBLE_EQ(cli.get_double("a", 0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(cli.get_double("b", 0.0), -0.25);
  EXPECT_DOUBLE_EQ(cli.get_double("c", 0.0), 0.5);
}

TEST(CliTest, ParseRejectsEmptyFlagName) {
  for (auto argv_tail : {"--", "--=v"}) {
    std::vector<const char*> argv{"prog", argv_tail};
    CliArgs cli;
    std::string error;
    EXPECT_FALSE(
        cli.parse(static_cast<int>(argv.size()), argv.data(), error));
    EXPECT_FALSE(error.empty());
  }
}

TEST(CliTest, DriverFlagsRejectWhatNoReaderTakes) {
  // read_driver_flags accepts exactly the flags read_flags reads; anything
  // else is a usage error before the driver does any work.
  const auto run = [](std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"driver"};
    argv.insert(argv.end(), args.begin(), args.end());
    CliArgs cli;
    std::int64_t seed = 0;
    const bool ok = read_driver_flags(
        static_cast<int>(argv.size()), argv.data(), cli,
        [&] { seed = cli.get_int("seed", 1); });
    return std::make_pair(ok, seed);
  };
  EXPECT_EQ(run({}), std::make_pair(true, std::int64_t{1}));
  EXPECT_EQ(run({"--seed", "7"}), std::make_pair(true, std::int64_t{7}));
  EXPECT_FALSE(run({"--help"}).first);            // unread flag
  EXPECT_FALSE(run({"--seed", "7x"}).first);      // CliUsageError value
  EXPECT_FALSE(run({"extra"}).first);             // positional argument
  EXPECT_FALSE(run({"--=1"}).first);              // malformed flag token
}

}  // namespace
}  // namespace satdiag
