#include "gen/families.h"

#include <stdexcept>
#include <string>

#include "gen/circuit.h"
#include "gen/sprand.h"
#include "gen/structured.h"

namespace mcr::gen {
namespace {

using Values = std::vector<std::int64_t>;

/// Counts are NodeId / ArcId sized.
Field count(const char* name, std::int64_t fallback) {
  return {name, 0, std::numeric_limits<std::int32_t>::max(), fallback};
}

Field weight(const char* name, std::int64_t fallback) {
  return {name, std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::max(), fallback};
}

/// [-2^32, 2^32]: a graph's total transit over < 2^31 arcs fits int64.
Field transit(const char* name) {
  return {name, -(std::int64_t{1} << 32), std::int64_t{1} << 32, 1};
}

/// [0, 2^53]: exact in a JSON double, so distinct seeds stay distinct.
Field seed() { return {"seed", 0, std::int64_t{1} << 53, 1}; }

NodeId node(std::int64_t v) { return static_cast<NodeId>(v); }

}  // namespace

const std::vector<Family>& families() {
  static const std::vector<Family> table = {
      {"sprand",
       {count("n", 512), count("m", kTwiceN), weight("wmin", 1), weight("wmax", 10000),
        transit("tmin"), transit("tmax"), seed()},
       [](const Values& v) {
         SprandConfig cfg;
         cfg.n = node(v[0]);
         cfg.m = static_cast<ArcId>(v[1]);
         cfg.min_weight = v[2];
         cfg.max_weight = v[3];
         cfg.min_transit = v[4];
         cfg.max_transit = v[5];
         cfg.seed = static_cast<std::uint64_t>(v[6]);
         return sprand(cfg);
       }},
      // fanout is the average out-degree in percent; the default 160 is
      // the library's avg_fanout 1.6 exactly (160.0 / 100.0 == 1.6).
      {"circuit",
       {count("n", 512), count("module", 32), count("fanout", 160), seed()},
       [](const Values& v) {
         CircuitConfig cfg;
         cfg.registers = node(v[0]);
         cfg.module_size = node(v[1]);
         cfg.avg_fanout = static_cast<double>(v[2]) / 100.0;
         cfg.seed = static_cast<std::uint64_t>(v[3]);
         return circuit(cfg);
       }},
      {"ring",
       {count("n", 64), weight("wmin", 1), weight("wmax", 100), seed()},
       [](const Values& v) {
         return random_ring(node(v[0]), v[1], v[2], static_cast<std::uint64_t>(v[3]));
       }},
      {"torus",
       {count("rows", 8), count("cols", 8), weight("wmin", 1), weight("wmax", 100), seed()},
       [](const Values& v) {
         return torus(node(v[0]), node(v[1]), v[2], v[3], static_cast<std::uint64_t>(v[4]));
       }},
  };
  return table;
}

const Family& find_family(std::string_view name) {
  for (const Family& f : families()) {
    if (name == f.name) return f;
  }
  throw std::invalid_argument("unknown generator family '" + std::string(name) +
                              "' (expected sprand | circuit | ring | torus)");
}

bool reads(const Family& family, std::string_view name) {
  for (const Field& f : family.fields) {
    if (name == f.name) return true;
  }
  return false;
}

std::optional<std::int64_t> default_value(const Field& field, const Values& before) {
  if (field.fallback != kTwiceN) return field.fallback;
  const std::int64_t twice = 2 * before.front();
  if (twice > field.hi) return std::nullopt;
  return twice;
}

}  // namespace mcr::gen
