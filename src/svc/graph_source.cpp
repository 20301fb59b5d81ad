#include "svc/graph_source.h"

#include <cmath>
#include <istream>
#include <limits>
#include <stdexcept>
#include <streambuf>
#include <string_view>
#include <utility>

#include "gen/circuit.h"
#include "gen/sprand.h"
#include "gen/structured.h"
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

/// The integers a generator field accepts.
enum class Range {
  kCount,    // n, m, module: NodeId / ArcId, [0, 2^31 - 1]
  kSeed,     // [0, 2^53]: exact in a JSON double, so distinct seeds stay distinct
  kWeight,   // int64
  kTransit,  // [-2^32, 2^32]: a graph's total transit over < 2^31 arcs fits int64
};

/// Field default meaning "twice the family's n" (sprand's m).
constexpr std::int64_t kTwiceN = -1;

struct Field {
  const char* name;
  Range range;
  std::int64_t fallback;
};

using Values = std::vector<std::int64_t>;

struct Family {
  const char* name;
  std::vector<Field> fields;  // key and build order; fields[0] is n
  Graph (*make)(const Values& v);
};

const std::vector<Family>& families() {
  static const std::vector<Family> table = {
      {"sprand",
       {{"n", Range::kCount, 512},
        {"m", Range::kCount, kTwiceN},
        {"wmin", Range::kWeight, 1},
        {"wmax", Range::kWeight, 10000},
        {"tmin", Range::kTransit, 1},
        {"tmax", Range::kTransit, 1},
        {"seed", Range::kSeed, 1}},
       [](const Values& v) {
         gen::SprandConfig cfg;
         cfg.n = static_cast<NodeId>(v[0]);
         cfg.m = static_cast<ArcId>(v[1]);
         cfg.min_weight = v[2];
         cfg.max_weight = v[3];
         cfg.min_transit = v[4];
         cfg.max_transit = v[5];
         cfg.seed = static_cast<std::uint64_t>(v[6]);
         return gen::sprand(cfg);
       }},
      // avg_fanout stays the library default: the service has always
      // served circuits with it, and reference solvers rebuild them so.
      {"circuit",
       {{"n", Range::kCount, 512}, {"module", Range::kCount, 32}, {"seed", Range::kSeed, 1}},
       [](const Values& v) {
         gen::CircuitConfig cfg;
         cfg.registers = static_cast<NodeId>(v[0]);
         cfg.module_size = static_cast<NodeId>(v[1]);
         cfg.seed = static_cast<std::uint64_t>(v[2]);
         return gen::circuit(cfg);
       }},
      {"ring",
       {{"n", Range::kCount, 64},
        {"wmin", Range::kWeight, 1},
        {"wmax", Range::kWeight, 100},
        {"seed", Range::kSeed, 1}},
       [](const Values& v) {
         return gen::random_ring(static_cast<NodeId>(v[0]), v[1], v[2],
                                 static_cast<std::uint64_t>(v[3]));
       }},
  };
  return table;
}

const Family& find_family(const std::string& name) {
  for (const Family& f : families()) {
    if (name == f.name) return f;
  }
  throw std::invalid_argument("unknown generator family '" + name +
                              "' (expected sprand | circuit | ring)");
}

std::pair<std::int64_t, std::int64_t> bounds(Range r) {
  switch (r) {
    case Range::kCount: return {0, std::numeric_limits<std::int32_t>::max()};
    case Range::kSeed: return {0, std::int64_t{1} << 53};
    case Range::kTransit: return {-(std::int64_t{1} << 32), std::int64_t{1} << 32};
    case Range::kWeight: break;
  }
  return {std::numeric_limits<std::int64_t>::min(), std::numeric_limits<std::int64_t>::max()};
}

std::int64_t in_range(const Field& f, std::int64_t x) {
  const auto [lo, hi] = bounds(f.range);
  if (x < lo || x > hi) {
    throw std::invalid_argument("generator field '" + std::string(f.name) + "' = " +
                                std::to_string(x) + " is outside [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]");
  }
  return x;
}

/// The default of a kTwiceN field. When 2n leaves the field's range the
/// fault is n's: the message names n and the largest n that fits.
std::int64_t twice_n(const Field& f, std::int64_t n) {
  const std::int64_t hi = bounds(f.range).second;
  if (2 * n > hi) {
    throw std::invalid_argument("generator field 'n' = " + std::to_string(n) +
                                " makes the default '" + f.name + "' = 2n exceed " +
                                std::to_string(hi) + "; the largest 'n' whose default fits is " +
                                std::to_string(hi / 2) + ", or give '" + f.name +
                                "' explicitly");
  }
  return 2 * n;
}

std::int64_t integer_field(const Field& f, const json::Value& v) {
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
  return in_range(f, static_cast<std::int64_t>(d));
}

std::string accepted_keys(const Family& family) {
  std::string out = "family";
  for (const Field& f : family.fields) {
    out += ", ";
    out += f.name;
  }
  return out;
}

void parse_generator(const json::Value& spec, GraphSource& src) {
  if (!spec.is_object()) throw std::invalid_argument("\"generator\" must be an object");
  const json::Value::Object& obj = spec.as_object();
  const auto fam = obj.find("family");
  const Family& family =
      find_family(fam != obj.end() && fam->second.is_string() ? fam->second.as_string() : "");
  for (const auto& [key, value] : obj) {
    bool known = key == "family";
    for (const Field& f : family.fields) known = known || key == f.name;
    if (!known) {
      throw std::invalid_argument("generator family '" + std::string(family.name) +
                                  "' does not read '" + key +
                                  "' (accepted keys: " + accepted_keys(family) + ")");
    }
  }
  src.family = family.name;
  src.alias_key = "gen:" + src.family;
  for (const Field& f : family.fields) {
    const auto it = obj.find(f.name);
    const std::int64_t x = it != obj.end()         ? integer_field(f, it->second)
                           : f.fallback == kTwiceN ? twice_n(f, src.fields.front())
                                                   : f.fallback;
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
    case Kind::kGenerator: return find_family(family).make(fields);
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
