#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/util/argparse.hpp"
#include "src/util/ids.hpp"
#include "src/util/log.hpp"
#include "src/util/rng.hpp"

namespace tp {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  CellId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), kInvalidIndex);
}

TEST(StrongId, ComparesByValue) {
  EXPECT_EQ(CellId{3}, CellId{3});
  EXPECT_NE(CellId{3}, CellId{4});
  EXPECT_LT(CellId{3}, CellId{4});
}

TEST(StrongId, Hashable) {
  std::unordered_set<NetId> set{NetId{1}, NetId{2}, NetId{1}};
  EXPECT_EQ(set.size(), 2u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Require, ThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, "broken invariant");
    FAIL() << "require(false) did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "broken invariant");
  }
}

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// ArgParser.

// Parses `args` (argv[0] excluded) and returns parse()'s verdict.
bool parse_args(util::ArgParser& parser, std::vector<std::string> args,
                std::string* error, bool* help) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return parser.parse(static_cast<int>(argv.size()), argv.data(), error,
                      help);
}

struct ParsedArgs {
  bool verbose = false;
  std::string name = "unset";
  std::size_t count = 5;
  int offset = 0;
  double scale = 1.0;
  std::vector<std::string> items;
  std::vector<std::string> operands;
};

util::ArgParser make_parser(ParsedArgs& out) {
  util::ArgParser parser("prog", "test program");
  parser.add_flag("--verbose", &out.verbose, "talk more");
  parser.add_value("--name", &out.name, "a string");
  parser.add_value("--count", &out.count, "an unsigned count");
  parser.add_value("--offset", &out.offset, "a signed int");
  parser.add_value("--scale", &out.scale, "a real number");
  parser.add_list("--item", &out.items, "repeatable");
  parser.add_positionals(&out.operands, "FILE", "input files");
  return parser;
}

TEST(ArgParser, ParsesFlagsValuesListsAndPositionals) {
  ParsedArgs out;
  util::ArgParser parser = make_parser(out);
  std::string error;
  bool help = true;
  ASSERT_TRUE(parse_args(parser,
                         {"a.v", "--verbose", "--name", "x y", "--count",
                          "12", "--offset", "-3", "--scale", "2.5e-1",
                          "--item", "p", "b.v", "--item", "q"},
                         &error, &help))
      << error;
  EXPECT_FALSE(help);
  EXPECT_TRUE(out.verbose);
  EXPECT_EQ(out.name, "x y");
  EXPECT_EQ(out.count, 12u);
  EXPECT_EQ(out.offset, -3);
  EXPECT_DOUBLE_EQ(out.scale, 0.25);
  EXPECT_EQ(out.items, (std::vector<std::string>{"p", "q"}));
  EXPECT_EQ(out.operands, (std::vector<std::string>{"a.v", "b.v"}));
}

TEST(ArgParser, UnsetOptionsKeepTheirDefaults) {
  ParsedArgs out;
  util::ArgParser parser = make_parser(out);
  std::string error;
  bool help = true;
  ASSERT_TRUE(parse_args(parser, {}, &error, &help)) << error;
  EXPECT_FALSE(help);
  EXPECT_FALSE(out.verbose);
  EXPECT_EQ(out.name, "unset");
  EXPECT_EQ(out.count, 5u);
  EXPECT_TRUE(out.items.empty());
  EXPECT_TRUE(out.operands.empty());
}

TEST(ArgParser, HelpStopsParsingWithoutTouchingTargets) {
  ParsedArgs out;
  util::ArgParser parser = make_parser(out);
  std::string error;
  bool help = false;
  ASSERT_TRUE(parse_args(parser, {"--help", "--count", "oops"}, &error,
                         &help));
  EXPECT_TRUE(help);
  EXPECT_EQ(out.count, 5u);
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("usage: prog [options] [FILE...]"), std::string::npos);
  EXPECT_NE(usage.find("--count N"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(ArgParser, RejectsUnknownArgumentsAndMissingValues) {
  ParsedArgs out;
  util::ArgParser parser = make_parser(out);
  std::string error;
  bool help = false;
  EXPECT_FALSE(parse_args(parser, {"--bogus"}, &error, &help));
  EXPECT_EQ(error, "unknown argument '--bogus'");
  EXPECT_FALSE(parse_args(parser, {"--count"}, &error, &help));
  EXPECT_EQ(error, "--count requires a N argument");
}

// Each malformed number is a usage error naming the value and the flag,
// and leaves the target at its previous value.
TEST(ArgParser, RejectsMalformedNumbers) {
  const std::vector<std::vector<std::string>> cases = {
      {"--count", "-1"},                     // would wrap to SIZE_MAX
      {"--count", "12abc"},                  // trailing characters
      {"--count", "7 "},                     // trailing whitespace
      {"--count", ""},                       // empty
      {"--count", "99999999999999999999"},   // exceeds std::size_t
      {"--offset", "3x"},                    // trailing characters
      {"--offset", "99999999999"},           // exceeds int
      {"--offset", "-99999999999"},          // below int
      {"--scale", "1.5ms"},                  // trailing characters
      {"--scale", "1e999"},                  // exceeds double
      {"--scale", "abc"},                    // not a number
  };
  for (const std::vector<std::string>& args : cases) {
    SCOPED_TRACE(args[0] + " '" + args[1] + "'");
    ParsedArgs out;
    util::ArgParser parser = make_parser(out);
    std::string error;
    bool help = false;
    EXPECT_FALSE(parse_args(parser, args, &error, &help));
    EXPECT_EQ(error, "invalid value '" + args[1] + "' for " + args[0]);
    EXPECT_EQ(out.count, 5u);
    EXPECT_EQ(out.offset, 0);
    EXPECT_DOUBLE_EQ(out.scale, 1.0);
  }
}

TEST(ArgParser, AcceptsNumbersAtTheEdgesOfTheirRange) {
  ParsedArgs out;
  util::ArgParser parser = make_parser(out);
  std::string error;
  bool help = false;
  constexpr std::size_t kMaxSize = std::numeric_limits<std::size_t>::max();
  constexpr int kMinInt = std::numeric_limits<int>::min();
  ASSERT_TRUE(parse_args(parser,
                         {"--count", std::to_string(kMaxSize), "--offset",
                          std::to_string(kMinInt), "--scale", "-0.5"},
                         &error, &help))
      << error;
  EXPECT_EQ(out.count, kMaxSize);
  EXPECT_EQ(out.offset, kMinInt);
  EXPECT_DOUBLE_EQ(out.scale, -0.5);
}

}  // namespace
}  // namespace tp
