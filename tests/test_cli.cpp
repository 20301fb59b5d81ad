#include "cli.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mcr::cli {
namespace {

// The flags every case below may use; parse() rejects any other.
const std::vector<Flag> kFlags = {
    {"n", "N", "nodes"},
    {"m", "M", "arcs"},
    {"verify", "", "certify the result"},
    {"algo", "NAME", "registry solver"},
    {"missing", "X", "never given"},
    {"neg", "N", "a negative integer"},
    {"worker", "SPEC", "one backend\n(repeatable)"},
    {"replicas", "R", "replication factor"},
};

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


std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

// The usage text is rendered from the same table parse() checks, so
// every accepted flag is named in it, once, with its argument.
TEST(Cli, UsageRendersEveryRowOnceWithItsArgument) {
  const std::string text = usage("prog <file> [options]\nprog --list", kFlags);
  EXPECT_EQ(text.rfind("usage: prog <file> [options]\n       prog --list\n", 0), 0u) << text;
  for (const Flag& f : kFlags) {
    const std::string head = "--" + f.name + (f.arg.empty() ? "" : " " + f.arg);
    EXPECT_EQ(occurrences(text, "  " + head + " "), 1u) << head << "\n" << text;
    EXPECT_EQ(occurrences(text, f.help.substr(0, f.help.find('\n'))), 1u) << text;
  }
  // Help columns align, and a help line break continues in the column.
  const std::size_t column = text.find("nodes") - text.rfind('\n', text.find("nodes")) - 1;
  EXPECT_EQ(text.find("registry solver") - text.rfind('\n', text.find("registry solver")) - 1,
            column);
  EXPECT_NE(text.find("\n" + std::string(column, ' ') + "(repeatable)\n"), std::string::npos)
      << text;
  try {
    (void)cli::parse({"--verbose"}, kFlags);
    FAIL() << "a flag outside the table parsed";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--verbose"), std::string::npos) << e.what();
    EXPECT_EQ(text.find("--verbose"), std::string::npos);
  }
}

}  // namespace
}  // namespace mcr::cli
