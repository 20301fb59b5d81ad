// The generator families of mcr_gen and `mcr_pack gen`, configured from
// the same flags: --n --m --wmin --wmax --tmin --tmax --seed (sprand),
// --n --module --fanout --seed (circuit, fanout in percent), --n --wmin
// --wmax --seed (ring), --rows --cols --wmin --wmax --seed (torus).
#ifndef MCR_TOOLS_GENERATE_H
#define MCR_TOOLS_GENERATE_H

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "cli.h"
#include "gen/circuit.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/graph.h"

namespace mcr::cli {

inline Graph generate_graph(const std::string& family, const Options& opt) {
  // Counts are NodeId / ArcId sized; transits stay within [-2^32, 2^32]
  // so a graph's total transit fits int64 (the service's spec bounds).
  const auto count = [&](const char* key, std::int64_t fallback) {
    return opt.get_int_in(key, fallback, 0, std::numeric_limits<std::int32_t>::max());
  };
  const auto transit = [&](const char* key) {
    return opt.get_int_in(key, 1, -(std::int64_t{1} << 32), std::int64_t{1} << 32);
  };
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  if (family == "sprand") {
    gen::SprandConfig cfg;
    cfg.n = static_cast<NodeId>(count("n", 512));
    // The default m = 2n must fit an ArcId too; its failure is --n's.
    constexpr std::int64_t kMaxCount = std::numeric_limits<std::int32_t>::max();
    if (!opt.has("m") && 2 * std::int64_t{cfg.n} > kMaxCount) {
      throw std::invalid_argument(
          "option --n " + std::to_string(cfg.n) + " makes the default --m = 2n exceed " +
          std::to_string(kMaxCount) + "; the largest --n whose default fits is " +
          std::to_string(kMaxCount / 2) + ", or give --m explicitly");
    }
    cfg.m = static_cast<ArcId>(count("m", 2 * std::int64_t{cfg.n}));
    cfg.min_weight = opt.get_int("wmin", 1);
    cfg.max_weight = opt.get_int("wmax", 10000);
    cfg.min_transit = transit("tmin");
    cfg.max_transit = transit("tmax");
    cfg.seed = seed;
    return gen::sprand(cfg);
  }
  if (family == "circuit") {
    gen::CircuitConfig cfg;
    cfg.registers = static_cast<NodeId>(count("n", 512));
    cfg.module_size = static_cast<NodeId>(count("module", 32));
    cfg.avg_fanout = static_cast<double>(count("fanout", 150)) / 100.0;
    cfg.seed = seed;
    return gen::circuit(cfg);
  }
  if (family == "ring") {
    return gen::random_ring(static_cast<NodeId>(count("n", 64)), opt.get_int("wmin", 1),
                            opt.get_int("wmax", 100), seed);
  }
  if (family == "torus") {
    return gen::torus(static_cast<NodeId>(count("rows", 8)),
                      static_cast<NodeId>(count("cols", 8)),
                      opt.get_int("wmin", 1), opt.get_int("wmax", 100), seed);
  }
  throw std::invalid_argument("unknown family '" + family +
                              "' (expected sprand | circuit | ring | torus)");
}

}  // namespace mcr::cli

#endif  // MCR_TOOLS_GENERATE_H
