#include "cli.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "gen/families.h"

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

Options parse(const std::vector<std::string>& args, const std::vector<Flag>& flags) {
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
    if (std::none_of(flags.begin(), flags.end(), [&](const Flag& f) { return f.name == key; })) {
      throw UsageError("unknown option --" + key);
    }
    out.named[key] = value;
    out.repeated[key].push_back(value);
  }
  return out;
}

Options parse(int argc, const char* const* argv, const std::vector<Flag>& flags) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args, flags);
}

std::string usage(std::string_view synopsis, const std::vector<Flag>& flags) {
  const auto indent = [](std::string_view text, std::size_t width) {
    std::string out;
    for (const char c : text) {
      out += c;
      if (c == '\n') out.append(width, ' ');
    }
    return out + "\n";
  };
  std::string out = "usage: " + indent(synopsis, 7);
  std::vector<std::string> heads;
  std::size_t width = 0;
  for (const Flag& f : flags) {
    heads.push_back("  --" + f.name + (f.arg.empty() ? "" : " " + f.arg) + "  ");
    width = std::max(width, heads.back().size());
  }
  for (std::size_t i = 0; i < flags.size(); ++i) {
    heads[i].resize(width, ' ');
    out += heads[i] + indent(flags[i].help, width);
  }
  return out;
}

std::vector<Flag> generator_flags() {
  std::vector<Flag> rows;
  for (const gen::Family& family : gen::families()) {
    for (const gen::Field& field : family.fields) {
      auto row = std::find_if(rows.begin(), rows.end(),
                              [&](const Flag& f) { return f.name == field.name; });
      if (row == rows.end()) row = rows.insert(rows.end(), Flag{field.name, "N", ""});
      row->help += (row->help.empty() ? "" : ", ") + std::string(family.name) + " " +
                   (field.fallback == gen::kTwiceN ? "2n" : std::to_string(field.fallback));
    }
  }
  return rows;
}

Graph generate(const std::string& family_name, const Options& opt) {
  const gen::Family& family = gen::find_family(family_name);
  for (const Flag& flag : generator_flags()) {
    if (!opt.has(flag.name) || gen::reads(family, flag.name)) continue;
    std::string reads;
    for (const gen::Field& f : family.fields) reads += " --" + std::string(f.name);
    throw UsageError("family " + family_name + " does not read --" + flag.name + " (it reads" +
                     reads + ")");
  }
  std::vector<std::int64_t> values;
  for (const gen::Field& f : family.fields) {
    const std::optional<std::int64_t> x =
        opt.has(f.name) ? opt.get_int_in(f.name, 0, f.lo, f.hi) : gen::default_value(f, values);
    if (!x) {
      // sprand's m = 2n leaves m's range: the fault is --n's.
      throw std::invalid_argument(
          "option --n " + std::to_string(values.front()) + " makes the default --" + f.name +
          " = 2n exceed " + std::to_string(f.hi) + "; the largest --n whose default fits is " +
          std::to_string(f.hi / 2) + ", or give --" + f.name + " explicitly");
    }
    values.push_back(*x);
  }
  return family.make(values);
}

}  // namespace mcr::cli
