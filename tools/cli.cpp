#include "cli.h"

#include <algorithm>
#include <stdexcept>

namespace mcr::cli {

std::string Options::get(const std::string& key, const std::string& fallback) const {
  const auto it = named.find(key);
  return it == named.end() ? fallback : it->second;
}

std::vector<std::string> Options::get_all(const std::string& key) const {
  const auto it = repeated.find(key);
  return it == repeated.end() ? std::vector<std::string>{} : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = named.find(key);
  if (it == named.end()) return fallback;
  std::size_t pos = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(it->second, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key + " expects an integer, got '" +
                                it->second + "'");
  }
  if (pos != it->second.size()) {
    throw std::invalid_argument("option --" + key + " expects an integer, got '" +
                                it->second + "'");
  }
  return v;
}

std::int64_t Options::get_int_in(const std::string& key, std::int64_t fallback,
                                 std::int64_t min, std::int64_t max) const {
  const std::int64_t v = get_int(key, fallback);
  if (v < min || v > max) {
    throw std::invalid_argument("option --" + key + " expects an integer in [" +
                                std::to_string(min) + ", " + std::to_string(max) +
                                "], got " + std::to_string(v));
  }
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = named.find(key);
  if (it == named.end()) return fallback;
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(it->second, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" +
                                it->second + "'");
  }
  if (pos != it->second.size()) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" +
                                it->second + "'");
  }
  return v;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t end = std::min(csv.find(',', begin), csv.size());
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

Options parse(const std::vector<std::string>& args,
              const std::vector<std::string_view>& flags) {
  Options out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      out.positional.push_back(arg);
      continue;
    }
    if (arg.size() == 2) throw UsageError("lone '--' is not a valid option");
    if (arg[2] == '-') throw UsageError("malformed option: " + arg);
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    std::string key;
    std::string value;
    if (eq != std::string::npos) {
      key = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      key = body;
      value = args[i + 1];
      ++i;
    } else {
      key = body;
    }
    if (std::find(flags.begin(), flags.end(), key) == flags.end()) {
      throw UsageError("unknown option --" + key);
    }
    out.named[key] = value;
    out.repeated[key].push_back(value);
  }
  return out;
}

Options parse(int argc, const char* const* argv,
              const std::vector<std::string_view>& flags) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args, flags);
}

}  // namespace mcr::cli
