#include "svc/graph_source.h"

#include <cmath>
#include <istream>
#include <stdexcept>
#include <streambuf>
#include <string_view>

#include "gen/families.h"
#include "graph/io.h"
#include "support/json.h"
#include "svc/listener.h"

namespace mcr::svc {
namespace {

constexpr std::string_view kDimacsPrefix = "dimacs:";

/// Reads a string in place; an istringstream would copy it.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(std::string_view text) {
    char* begin = const_cast<char*>(text.data());  // get area only, never written
    setg(begin, begin, begin + text.size());
  }
};

/// The default of a field the spec leaves out. When sprand's m = 2n
/// leaves m's range the fault is n's: the message names n and the
/// largest n that fits.
std::int64_t default_field(const gen::Field& f, const std::vector<std::int64_t>& before) {
  if (const auto x = gen::default_value(f, before)) return *x;
  throw std::invalid_argument("generator field 'n' = " + std::to_string(before.front()) +
                              " makes the default '" + f.name + "' = 2n exceed " +
                              std::to_string(f.hi) + "; the largest 'n' whose default fits is " +
                              std::to_string(f.hi / 2) + ", or give '" + f.name +
                              "' explicitly");
}

std::int64_t integer_field(const gen::Field& f, const json::Value& v) {
  const std::string what = "generator field '" + std::string(f.name) + "'";
  if (!v.is_number()) throw std::invalid_argument(what + " must be an integer");
  const double d = v.as_double();
  if (!std::isfinite(d) || d != std::trunc(d)) {
    throw std::invalid_argument(what + " must be an integer (got " + fmt_json_double(d) + ")");
  }
  // The int64 cast is defined only on [-2^63, 2^63).
  if (d < -0x1p63 || d >= 0x1p63) {
    throw std::invalid_argument(what + " = " + fmt_json_double(d) + " is outside the int64 range");
  }
  const auto x = static_cast<std::int64_t>(d);
  if (x < f.lo || x > f.hi) {
    throw std::invalid_argument(what + " = " + std::to_string(x) + " is outside [" +
                                std::to_string(f.lo) + ", " + std::to_string(f.hi) + "]");
  }
  return x;
}

std::string accepted_keys(const gen::Family& family) {
  std::string out = "family";
  for (const gen::Field& f : family.fields) {
    out += ", ";
    out += f.name;
  }
  return out;
}

void parse_generator(const json::Value& spec, GraphSource& src) {
  if (!spec.is_object()) throw std::invalid_argument("\"generator\" must be an object");
  const json::Value::Object& obj = spec.as_object();
  const auto fam = obj.find("family");
  const gen::Family& family = gen::find_family(
      fam != obj.end() && fam->second.is_string() ? fam->second.as_string() : "");
  for (const auto& [key, value] : obj) {
    if (key != "family" && !gen::reads(family, key)) {
      throw std::invalid_argument("generator family '" + std::string(family.name) +
                                  "' does not read '" + key +
                                  "' (accepted keys: " + accepted_keys(family) + ")");
    }
  }
  src.family = family.name;
  src.alias_key = "gen:" + src.family;
  for (const gen::Field& f : family.fields) {
    const auto it = obj.find(f.name);
    const std::int64_t x =
        it != obj.end() ? integer_field(f, it->second) : default_field(f, src.fields);
    src.fields.push_back(x);
    src.alias_key += ';';
    src.alias_key += f.name;
    src.alias_key += '=';
    src.alias_key += std::to_string(x);
  }
}

}  // namespace

Graph GraphSource::build() const {
  switch (kind) {
    case Kind::kDimacs: {
      ViewBuf text(std::string_view(alias_key).substr(kDimacsPrefix.size()));
      std::istream is(&text);
      return read_dimacs(is);
    }
    case Kind::kPath: return load_dimacs(ref);
    case Kind::kGenerator: return gen::find_family(family).make(fields);
    case Kind::kNone:
      throw std::invalid_argument(
          "no graph source (expected one of fingerprint | dimacs | path | generator)");
    case Kind::kFingerprint: break;
  }
  throw std::logic_error("GraphSource::build: a fingerprint names a resident graph");
}

GraphSource parse_graph_source(const json::Value& request) {
  GraphSource src;
  if (request.has("fingerprint")) {
    src.kind = GraphSource::Kind::kFingerprint;
    src.ref = request.at("fingerprint").as_string();
  } else if (request.has("dimacs")) {
    src.kind = GraphSource::Kind::kDimacs;
    src.alias_key = std::string(kDimacsPrefix) + request.at("dimacs").as_string();
  } else if (request.has("path")) {
    src.kind = GraphSource::Kind::kPath;
    src.ref = request.at("path").as_string();
  } else if (request.has("generator")) {
    src.kind = GraphSource::Kind::kGenerator;
    parse_generator(request.at("generator"), src);
  }
  return src;
}

}  // namespace mcr::svc
