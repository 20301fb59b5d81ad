// The generator families of mcr_gen and `mcr_pack gen`, configured from
// the same flags: --n --m --wmin --wmax --tmin --tmax --seed (sprand),
// --n --module --fanout --seed (circuit, fanout in percent), --n --wmin
// --wmax --seed (ring), --rows --cols --wmin --wmax --seed (torus).
#ifndef MCR_TOOLS_GENERATE_H
#define MCR_TOOLS_GENERATE_H

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cli.h"
#include "gen/circuit.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/graph.h"

namespace mcr::cli {

inline Graph generate_graph(const std::string& family, const Options& opt) {
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  if (family == "sprand") {
    gen::SprandConfig cfg;
    cfg.n = static_cast<NodeId>(opt.get_int("n", 512));
    cfg.m = static_cast<ArcId>(opt.get_int("m", 2 * cfg.n));
    cfg.min_weight = opt.get_int("wmin", 1);
    cfg.max_weight = opt.get_int("wmax", 10000);
    cfg.min_transit = opt.get_int("tmin", 1);
    cfg.max_transit = opt.get_int("tmax", 1);
    cfg.seed = seed;
    return gen::sprand(cfg);
  }
  if (family == "circuit") {
    gen::CircuitConfig cfg;
    cfg.registers = static_cast<NodeId>(opt.get_int("n", 512));
    cfg.module_size = static_cast<NodeId>(opt.get_int("module", 32));
    cfg.avg_fanout = static_cast<double>(opt.get_int("fanout", 150)) / 100.0;
    cfg.seed = seed;
    return gen::circuit(cfg);
  }
  if (family == "ring") {
    return gen::random_ring(static_cast<NodeId>(opt.get_int("n", 64)),
                            opt.get_int("wmin", 1), opt.get_int("wmax", 100), seed);
  }
  if (family == "torus") {
    return gen::torus(static_cast<NodeId>(opt.get_int("rows", 8)),
                      static_cast<NodeId>(opt.get_int("cols", 8)),
                      opt.get_int("wmin", 1), opt.get_int("wmax", 100), seed);
  }
  throw std::invalid_argument("unknown family '" + family +
                              "' (expected sprand | circuit | ring | torus)");
}

}  // namespace mcr::cli

#endif  // MCR_TOOLS_GENERATE_H
