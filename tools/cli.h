// Minimal command-line option parsing shared by the mcr tools.
// Deliberately tiny: "--key value", "--key=value", bare "--flag", and
// positional arguments. Each tool declares the flags it accepts and any
// other flag is a usage error. Parsing is a pure function over strings
// so the test suite can drive it without spawning processes.
#ifndef MCR_TOOLS_CLI_H
#define MCR_TOOLS_CLI_H

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mcr::cli {

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

/// Parses argv[1..argc). `flags` declares every flag the tool accepts,
/// without the leading "--". Throws UsageError on any other flag and on
/// malformed input (e.g. "---x" or a lone "--").
[[nodiscard]] Options parse(const std::vector<std::string>& args,
                            const std::vector<std::string_view>& flags);
[[nodiscard]] Options parse(int argc, const char* const* argv,
                            const std::vector<std::string_view>& flags);

}  // namespace mcr::cli

#endif  // MCR_TOOLS_CLI_H
