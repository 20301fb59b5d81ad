// Minimal command-line option parsing shared by the mcr tools.
// Deliberately tiny: "--key value", "--key=value", bare "--flag", and
// positional arguments. Each tool declares the flags it accepts in one
// table: parse() rejects any other flag and usage() renders the table,
// so the help cannot drift from what is accepted. Parsing is a pure
// function over strings so the test suite can drive it without
// spawning processes.
#ifndef MCR_TOOLS_CLI_H
#define MCR_TOOLS_CLI_H

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace mcr::cli {

/// One flag a tool accepts: its name without the leading "--", the
/// placeholder of its value ("" for a bare flag) and its help; a "\n"
/// in the help continues it on the next line.
struct Flag {
  std::string name;
  std::string arg;
  std::string help;
};

struct Options {
  std::map<std::string, std::string> named;  // flag -> value ("" for bare flags; last wins)
  /// Every value of every flag, in command-line order. A flag given N
  /// times has N entries here while `named` keeps only the last — so
  /// repeatable flags (e.g. mcr_router --worker, mcr_load --target)
  /// coexist with the last-wins convention the other tools rely on.
  std::map<std::string, std::vector<std::string>> repeated;
  std::vector<std::string> positional;

  [[nodiscard]] bool has(const std::string& key) const { return named.count(key) > 0; }
  /// Value of --key, or fallback when absent.
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const;
  /// All values of --key in the order given; empty when absent.
  [[nodiscard]] std::vector<std::string> get_all(const std::string& key) const;
  /// Integer value of --key; throws std::invalid_argument on garbage.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// get_int constrained to [min, max]; throws std::invalid_argument
  /// (naming the flag and the bounds) when the value falls outside.
  /// Used for count-like flags such as --threads and --trials.
  [[nodiscard]] std::int64_t get_int_in(const std::string& key, std::int64_t fallback,
                                        std::int64_t min, std::int64_t max) const;
  /// Floating-point value of --key; throws std::invalid_argument on garbage.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
};

/// The non-empty items of a comma-separated list ("a,,b" -> {a, b}).
[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv);

/// A command line the tool cannot accept: an undeclared flag or a
/// malformed option. Tools answer it with their usage text and exit 2.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parses argv[1..argc). `flags` declares every flag the tool accepts.
/// Throws UsageError on any other flag and on malformed input (e.g.
/// "---x" or a lone "--").
[[nodiscard]] Options parse(const std::vector<std::string>& args,
                            const std::vector<Flag>& flags);
[[nodiscard]] Options parse(int argc, const char* const* argv,
                            const std::vector<Flag>& flags);

/// "usage: " + `synopsis` (one form per line), then one row per flag:
/// "--name ARG" and its help in aligned columns.
[[nodiscard]] std::string usage(std::string_view synopsis, const std::vector<Flag>& flags);

/// One flag per field of the generator families (gen/families.h), in
/// first-use order; each row's help names the families that read it
/// and their defaults.
[[nodiscard]] std::vector<Flag> generator_flags();

/// Builds `family`'s graph from its generator flags. Throws UsageError
/// when a generator flag the family does not read is given, and
/// std::invalid_argument for an unknown family or a value outside its
/// field's range.
[[nodiscard]] Graph generate(const std::string& family, const Options& opt);

}  // namespace mcr::cli

#endif  // MCR_TOOLS_CLI_H
