#include "cli.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mcr::cli {
namespace {

// The flags every case below may use; parse() rejects any other.
const std::vector<std::string_view> kFlags = {"n",        "m",      "verify", "algo",
                                               "missing",  "neg",    "worker", "replicas"};

Options parse(const std::vector<std::string>& args) { return cli::parse(args, kFlags); }

TEST(Cli, PositionalOnly) {
  const Options o = parse({"file.dimacs", "other"});
  ASSERT_EQ(o.positional.size(), 2u);
  EXPECT_EQ(o.positional[0], "file.dimacs");
  EXPECT_TRUE(o.named.empty());
}

TEST(Cli, KeyValuePairs) {
  const Options o = parse({"--n", "512", "--m=1024"});
  EXPECT_EQ(o.get("n"), "512");
  EXPECT_EQ(o.get("m"), "1024");
}

TEST(Cli, BareFlagBeforeAnotherFlag) {
  const Options o = parse({"--verify", "--algo", "karp"});
  EXPECT_TRUE(o.has("verify"));
  EXPECT_EQ(o.get("verify"), "");
  EXPECT_EQ(o.get("algo"), "karp");
}

TEST(Cli, FlagConsumesFollowingBareToken) {
  // Documented behavior: "--key value" binds; use --key= for bare flags
  // followed by positionals.
  const Options o = parse({"--algo", "howard", "input.dimacs"});
  EXPECT_EQ(o.get("algo"), "howard");
  ASSERT_EQ(o.positional.size(), 1u);
  EXPECT_EQ(o.positional[0], "input.dimacs");
}

TEST(Cli, EqualsFormDoesNotConsume) {
  const Options o = parse({"--verify=", "input.dimacs"});
  EXPECT_TRUE(o.has("verify"));
  ASSERT_EQ(o.positional.size(), 1u);
}

TEST(Cli, GetFallbacks) {
  const Options o = parse({});
  EXPECT_EQ(o.get("missing", "dflt"), "dflt");
  EXPECT_EQ(o.get_int("missing", 42), 42);
}

TEST(Cli, GetIntParses) {
  const Options o = parse({"--n", "123", "--neg", "-7"});
  EXPECT_EQ(o.get_int("n", 0), 123);
  EXPECT_EQ(o.get_int("neg", 0), -7);
}

TEST(Cli, GetIntRejectsGarbage) {
  const Options o = parse({"--n", "12x"});
  EXPECT_THROW((void)o.get_int("n", 0), std::invalid_argument);
  const Options o2 = parse({"--n", "abc"});
  EXPECT_THROW((void)o2.get_int("n", 0), std::invalid_argument);
}

TEST(Cli, MalformedOptionsThrow) {
  EXPECT_THROW(parse({"--"}), UsageError);
  EXPECT_THROW(parse({"---x"}), UsageError);
}

TEST(Cli, UndeclaredFlagsAreUsageErrors) {
  // Both spellings, and a flag whose value would otherwise be consumed:
  // "--output X" must not silently fall through to the defaults.
  EXPECT_THROW(parse({"--output", "x.json"}), UsageError);
  EXPECT_THROW(parse({"--output=x.json"}), UsageError);
  EXPECT_THROW(parse({"--help"}), UsageError);
  EXPECT_THROW(parse({"--n", "1", "--nn", "2"}), UsageError);
  try {
    (void)parse({"input.dimacs", "--bogus"});
    FAIL() << "expected a UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos) << e.what();
  }
  // An empty declaration admits positionals only.
  EXPECT_EQ(cli::parse({"a", "b"}, {}).positional.size(), 2u);
  EXPECT_THROW((void)cli::parse({"--n", "1"}, {}), UsageError);
}

TEST(Cli, ArgcArgvOverloadSkipsProgramName) {
  const char* argv[] = {"prog", "--n", "5", "pos"};
  const Options o = cli::parse(4, argv, kFlags);
  EXPECT_EQ(o.get_int("n", 0), 5);
  ASSERT_EQ(o.positional.size(), 1u);
}

TEST(Cli, LastOccurrenceWins) {
  const Options o = parse({"--n", "1", "--n", "2"});
  EXPECT_EQ(o.get("n"), "2");
}

TEST(Cli, GetAllPreservesEveryOccurrenceInOrder) {
  // Repeatable flags (mcr_router --worker, mcr_load --target): get()
  // stays last-wins, get_all() sees every occurrence in argv order.
  const Options o = parse({"--worker", "unix:/tmp/a.sock", "--replicas", "2",
                           "--worker", "9301", "--worker=unix:/tmp/b.sock"});
  const std::vector<std::string> workers = o.get_all("worker");
  ASSERT_EQ(workers.size(), 3u);
  EXPECT_EQ(workers[0], "unix:/tmp/a.sock");
  EXPECT_EQ(workers[1], "9301");
  EXPECT_EQ(workers[2], "unix:/tmp/b.sock");
  EXPECT_EQ(o.get("worker"), "unix:/tmp/b.sock");  // last-wins unchanged
  ASSERT_EQ(o.get_all("replicas").size(), 1u);
}

TEST(Cli, GetAllOfMissingKeyIsEmpty) {
  const Options o = parse({"--n", "1"});
  EXPECT_TRUE(o.get_all("missing").empty());
}

}  // namespace
}  // namespace mcr::cli
