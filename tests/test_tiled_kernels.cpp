// Tiled relaxation kernels (graph/arc_tiles.h) — the contracts under
// test:
//   * ArcTilePartition covers every CSR position exactly once and every
//     node at least once, splits high-degree nodes across tiles, and
//     degrades to a single tile for target <= 0 or tiny inputs.
//   * The tiling property: CycleResult (value, witness cycle, counters)
//     is bit-identical across tile_arcs in {0, 1, 7, 64, 4096} x
//     num_threads in {1, 2, 8} on sprand / circuit / single-giant-SCC
//     instances, an all-ties instance and a hub instance.
//   * Pinned results: value, witness and every OpCounters field of the
//     tiled-engine solvers equal a recorded reference on three small
//     instances, so a change to the engine cannot drift both the tiled
//     and the untiled path together unnoticed.
//   * Bellman-Ford's negative-cycle verdict, witness, and potentials
//     match the serial path under any tiling, for every cost type.
//   * mcr_pool_*_total accumulates once per pool lifetime (a solve_many
//     batch contributes exactly one task per instance, not one per
//     wait), and mcr_ops_tiles_* counters are thread-independent.
//   * The inline-vs-pool cutoff: a 1-component graph with many tiles
//     still engages the pool (tile mode).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/registry.h"
#include "core/verify.h"
#include "gen/circuit.h"
#include "gen/sprand.h"
#include "gen/structured.h"
#include "graph/arc_tiles.h"
#include "graph/bellman_ford.h"
#include "graph/builder.h"
#include "obs/metrics.h"
#include "support/thread_pool.h"

namespace mcr {
namespace {

// --- ArcTilePartition -------------------------------------------------

void expect_partition_invariants(std::span<const std::int32_t> first,
                                 std::int32_t target) {
  const ArcTilePartition part(first, target);
  const std::size_t n = first.size() - 1;
  const std::int32_t total = first[n];
  ASSERT_EQ(part.positions(), total);
  if (n == 0) {
    EXPECT_TRUE(part.tiles().empty());
    return;
  }
  std::int32_t next_pos = 0;
  NodeId next_node = 0;
  for (const ArcTile& t : part.tiles()) {
    // Positions are contiguous across tiles, nodes never skip.
    EXPECT_EQ(t.pos_begin, next_pos);
    EXPECT_LE(t.node_begin, t.node_end);
    EXPECT_TRUE(t.node_begin == next_node ||
                (t.shares_first && t.node_begin + 1 == next_node))
        << "node_begin " << t.node_begin << " next " << next_node;
    EXPECT_LE(t.pos_begin, t.pos_end);
    if (target > 0 && total > target) {
      EXPECT_LE(t.pos_end - t.pos_begin, target);
    }
    // Node range brackets the position range.
    EXPECT_LE(first[static_cast<std::size_t>(t.node_begin)], t.pos_begin);
    EXPECT_GE(first[static_cast<std::size_t>(t.node_end) + 1], t.pos_end);
    EXPECT_EQ(t.shares_first,
              t.pos_begin > first[static_cast<std::size_t>(t.node_begin)]);
    EXPECT_EQ(t.shares_last,
              first[static_cast<std::size_t>(t.node_end) + 1] > t.pos_end);
    next_pos = t.pos_end;
    next_node = t.shares_last ? t.node_end : t.node_end + 1;
  }
  EXPECT_EQ(next_pos, total);
  EXPECT_EQ(next_node, static_cast<NodeId>(n));  // every node covered
}

TEST(ArcTilePartition, InvariantsOnRealCsrArrays) {
  gen::SprandConfig sc;
  sc.n = 200;
  sc.m = 900;
  sc.seed = 5;
  const Graph g = gen::sprand(sc);
  for (const std::int32_t target : {1, 7, 64, 899, 900, 100000}) {
    expect_partition_invariants(g.in_first(), target);
    expect_partition_invariants(g.out_first(), target);
  }
}

TEST(ArcTilePartition, SplitsHighDegreeNode) {
  // A star: node 0 has 100 out-arcs, everyone else none.
  GraphBuilder b(101);
  for (NodeId v = 1; v <= 100; ++v) b.add_arc(0, v, 1, 1);
  const Graph g = b.build();
  expect_partition_invariants(g.out_first(), 16);
  const ArcTilePartition part(g.out_first(), 16);
  ASSERT_GE(part.size(), 7u);  // ceil(100/16)
  int covering_hub = 0;
  for (const ArcTile& t : part.tiles()) {
    if (t.node_begin == 0) ++covering_hub;
  }
  EXPECT_GE(covering_hub, 7);  // the hub is split, not serialized
  EXPECT_TRUE(part.tiles().front().shares_last);
  // Trailing zero-degree nodes ride in the final tile.
  EXPECT_EQ(part.tiles().back().node_end, 100);
}

TEST(ArcTilePartition, DegenerateTargetsAndInputs) {
  const std::vector<std::int32_t> first{0, 2, 2, 5};
  for (const std::int32_t target : {0, -3, 5, 100}) {
    const ArcTilePartition part(first, target);
    ASSERT_EQ(part.size(), 1u) << target;
    EXPECT_EQ(part.tiles()[0].node_begin, 0);
    EXPECT_EQ(part.tiles()[0].node_end, 2);
    EXPECT_EQ(part.tiles()[0].pos_begin, 0);
    EXPECT_EQ(part.tiles()[0].pos_end, 5);
    EXPECT_FALSE(part.tiles()[0].shares_first);
    EXPECT_FALSE(part.tiles()[0].shares_last);
  }
  const std::vector<std::int32_t> empty{0};
  EXPECT_TRUE(ArcTilePartition(empty, 8).tiles().empty());
  // All-zero-degree nodes: one tile, zero positions.
  const std::vector<std::int32_t> isolated{0, 0, 0, 0};
  const ArcTilePartition part(isolated, 4);
  ASSERT_EQ(part.size(), 1u);
  EXPECT_EQ(part.tiles()[0].node_end, 2);
}

// --- Tiling property: bit-identical results ---------------------------

void expect_identical(const CycleResult& a, const CycleResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.has_cycle, b.has_cycle) << what;
  if (!a.has_cycle) return;
  EXPECT_EQ(a.value, b.value) << what;
  EXPECT_EQ(a.cycle, b.cycle) << what;
  EXPECT_EQ(a.counters, b.counters) << what;
}

// Every arc has the same weight (and, for ratio runs, the same
// transit), so every relaxation candidate ties and the first-position
// rule alone decides each parent and policy arc.
Graph equal_weight_graph(bool ratio) {
  gen::SprandConfig sc;
  sc.n = 48;
  sc.m = 160;
  sc.min_weight = 7;
  sc.max_weight = 7;
  sc.seed = 5;
  if (ratio) {
    sc.min_transit = 2;
    sc.max_transit = 2;
  }
  return gen::sprand(sc);
}

// Node 0 is a hub with in- and out-degree above 64, so tile_arcs = 64
// splits it across tiles; the graph also carries self-loops and
// parallel arcs, around a ring that keeps it one SCC.
Graph hub_graph() {
  constexpr NodeId n = 80;
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) {
    b.add_arc(0, v, (v * 37) % 101 - 10, 1 + v % 3);
    b.add_arc(v, 0, (v * 53) % 97 - 5, 1 + v % 2);
    b.add_arc(v, v % (n - 1) + 1, (v * 29) % 89, 1 + v % 4);
    if (v % 7 == 0) b.add_arc(v, v, 40 + v % 11, 1 + v % 5);
    if (v % 5 == 0) b.add_arc(v, 0, (v * 53) % 97 - 5, 2);
  }
  b.add_arc(0, 0, 60, 3);
  return b.build();
}

std::vector<Graph> tiling_instances(bool ratio) {
  std::vector<Graph> out;
  gen::SprandConfig sc;
  sc.n = 96;
  sc.m = 320;
  sc.seed = 11;
  if (ratio) {
    sc.min_transit = 1;
    sc.max_transit = 5;
  }
  out.push_back(gen::sprand(sc));
  // Single giant SCC: the shape the tentpole exists for.
  out.push_back(gen::torus(7, 7, 1, 1000, 13));
  if (!ratio) {
    gen::CircuitConfig cc;
    cc.registers = 60;
    cc.module_size = 6;
    cc.seed = 7;
    out.push_back(gen::circuit(cc));
  }
  out.push_back(equal_weight_graph(ratio));
  out.push_back(hub_graph());
  return out;
}

// tile_arcs = 1 splits every node with more than one arc across tiles.
constexpr std::int32_t kTileGrid[] = {0, 1, 7, 64, 4096};

TEST(TiledKernels, BitIdenticalAcrossTileSizesAndThreadsMean) {
  const auto graphs = tiling_instances(/*ratio=*/false);
  for (const std::string name : {"karp", "karp2", "howard", "lawler"}) {
    const auto solver = SolverRegistry::instance().create(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const CycleResult reference = minimum_cycle_mean(graphs[gi], *solver);
      EXPECT_TRUE(
          verify_result(graphs[gi], reference, ProblemKind::kCycleMean).ok)
          << name << " graph#" << gi;
      for (const std::int32_t tile_arcs : kTileGrid) {
        for (const int threads : {1, 2, 8}) {
          const CycleResult r = minimum_cycle_mean(
              graphs[gi], *solver,
              SolveOptions{.num_threads = threads, .tile_arcs = tile_arcs});
          expect_identical(reference, r,
                           name + " graph#" + std::to_string(gi) +
                               " tile_arcs=" + std::to_string(tile_arcs) +
                               " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(TiledKernels, BitIdenticalAcrossTileSizesAndThreadsRatio) {
  const auto graphs = tiling_instances(/*ratio=*/true);
  for (const std::string name : {"howard_ratio", "lawler_ratio"}) {
    const auto solver = SolverRegistry::instance().create(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const CycleResult reference = minimum_cycle_ratio(graphs[gi], *solver);
      for (const std::int32_t tile_arcs : kTileGrid) {
        for (const int threads : {1, 2, 8}) {
          const CycleResult r = minimum_cycle_ratio(
              graphs[gi], *solver,
              SolveOptions{.num_threads = threads, .tile_arcs = tile_arcs});
          expect_identical(reference, r,
                           name + " graph#" + std::to_string(gi) +
                               " tile_arcs=" + std::to_string(tile_arcs) +
                               " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

// The same arcs as `core` with three extra source nodes (zero in-degree:
// their fold sees no candidate) at the front, middle and end of the id
// range, each with one arc into the core.
Graph with_sources(const Graph& core) {
  const NodeId n = core.num_nodes();
  const NodeId half = n / 2;
  const auto id = [&](NodeId u) { return u + 1 + (u >= half ? 1 : 0); };
  GraphBuilder b(n + 3);
  for (ArcId a = 0; a < core.num_arcs(); ++a) {
    b.add_arc(id(core.src(a)), id(core.dst(a)), core.weight(a));
  }
  b.add_arc(0, id(3), -30);
  b.add_arc(half + 1, id(half + 5), 12);
  b.add_arc(n + 2, id(0), -7);
  return b.build();
}

TEST(TiledKernels, BellmanFordVerdictAndPotentialsMatchSerial) {
  gen::SprandConfig sc;
  sc.n = 80;
  sc.m = 300;
  sc.min_weight = -50;
  sc.max_weight = 100;
  sc.seed = 41;
  std::vector<Graph> graphs;
  graphs.push_back(gen::sprand(sc));
  graphs.push_back(with_sources(graphs.front()));
  // At bias -1 below every arc costs -1: each relaxation is a tie that
  // the first in-arc position decides.
  graphs.push_back(equal_weight_graph(/*ratio=*/false));
  ThreadPool pool(4);
  TileStats stats;
  int negative_inputs = 0;
  int feasible_inputs = 0;
  for (const Graph& g : graphs) {
    const Rational lambda = minimum_cycle_mean(g, "karp").value;
    // Costs w*den - num + bias: at the optimum lambda (bias 0) no cycle
    // is negative but zero-cost cycles exist; one unit lower (bias -1)
    // the optimum cycle is negative. Bias 1 stands for the raw weights.
    for (const std::int64_t bias : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1}}) {
      std::vector<std::int64_t> cost(static_cast<std::size_t>(g.num_arcs()));
      for (ArcId a = 0; a < g.num_arcs(); ++a) {
        cost[static_cast<std::size_t>(a)] =
            bias == 1 ? g.weight(a) : g.weight(a) * lambda.den() - lambda.num() + bias;
      }
      std::vector<double> real(cost.begin(), cost.end());
      // Scaled past int64 so the wide recurrence carries real weight.
      std::vector<int128> wide(cost.size());
      for (std::size_t i = 0; i < cost.size(); ++i) {
        wide[i] = static_cast<int128>(cost[i]) << 70;
      }
      OpCounters serial_ops;
      const BellmanFordResult serial = bellman_ford_all(g, cost, &serial_ops);
      const BellmanFordRealResult serial_real = bellman_ford_all_real(g, real, &serial_ops);
      const BellmanFordWideResult serial_wide = bellman_ford_all_wide(g, wide, &serial_ops);
      (serial.has_negative_cycle ? negative_inputs : feasible_inputs) += 1;
      EXPECT_EQ(serial_real.has_negative_cycle, serial.has_negative_cycle);
      EXPECT_EQ(serial_wide.has_negative_cycle, serial.has_negative_cycle);
      for (const std::int32_t tile_arcs : {1, 16, 64, 100000}) {
        const TileExec tiles{&pool, tile_arcs, &stats};
        const std::string what =
            "bias=" + std::to_string(bias) + " tile_arcs=" + std::to_string(tile_arcs);
        OpCounters tiled_ops;
        const BellmanFordResult tiled = bellman_ford_all(g, cost, &tiled_ops, tiles);
        EXPECT_EQ(serial.has_negative_cycle, tiled.has_negative_cycle) << what;
        EXPECT_EQ(serial.cycle, tiled.cycle) << what;
        EXPECT_EQ(serial.dist, tiled.dist) << what;
        const BellmanFordRealResult tiled_real =
            bellman_ford_all_real(g, real, &tiled_ops, tiles);
        EXPECT_EQ(serial_real.has_negative_cycle, tiled_real.has_negative_cycle) << what;
        EXPECT_EQ(serial_real.cycle, tiled_real.cycle) << what;
        EXPECT_EQ(serial_real.dist, tiled_real.dist) << what;
        const BellmanFordWideResult tiled_wide =
            bellman_ford_all_wide(g, wide, &tiled_ops, tiles);
        EXPECT_EQ(serial_wide.has_negative_cycle, tiled_wide.has_negative_cycle) << what;
        EXPECT_EQ(serial_wide.cycle, tiled_wide.cycle) << what;
        // Scans, relaxations and promotions of all three runs.
        EXPECT_EQ(serial_ops, tiled_ops) << what;
      }
    }
  }
  EXPECT_GT(negative_inputs, 0);
  EXPECT_GT(feasible_inputs, 0);
  EXPECT_GT(stats.waves.load(), 0u);
}

// --- Pinned results ---------------------------------------------------

// One recorded solve: the exact value, the witness arcs and every
// OpCounters field (iterations, arc_scans, relaxations, node_visits,
// heap_inserts, heap_decrease_keys, heap_delete_mins,
// feasibility_checks, cycle_evaluations, numeric_promotions).
struct Pin {
  const char* solver;
  int instance;
  std::int64_t num;
  std::int64_t den;
  std::vector<ArcId> cycle;
  OpCounters counters;
};

std::vector<Graph> pin_instances() {
  gen::SprandConfig sc;
  sc.n = 40;
  sc.m = 130;
  sc.min_weight = -20;
  sc.max_weight = 100;
  sc.min_transit = 1;
  sc.max_transit = 4;
  sc.seed = 17;
  std::vector<Graph> out;
  out.push_back(gen::sprand(sc));
  out.push_back(equal_weight_graph(/*ratio=*/false));
  out.push_back(hub_graph());
  return out;
}

std::string render_pin(const std::string& solver, int instance, const CycleResult& r) {
  std::ostringstream os;
  os << "{\"" << solver << "\", " << instance << ", " << r.value.num() << ", "
     << r.value.den() << ", {";
  for (std::size_t i = 0; i < r.cycle.size(); ++i) os << (i ? ", " : "") << r.cycle[i];
  const OpCounters& c = r.counters;
  os << "}, {" << c.iterations << ", " << c.arc_scans << ", " << c.relaxations << ", "
     << c.node_visits << ", " << c.heap_inserts << ", " << c.heap_decrease_keys << ", "
     << c.heap_delete_mins << ", " << c.feasibility_checks << ", "
     << c.cycle_evaluations << ", " << c.numeric_promotions << "}},";
  return os.str();
}

const std::vector<Pin>& pins() {
  // Recorded from the per-arc-id kernels that preceded the sweep-order
  // streams and the flat fold.
  static const std::vector<Pin> table = {
      {"karp", 0, -14, 1, {49, 115}, {40, 5200, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"karp", 1, 7, 1, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47}, {48, 7680, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"karp", 2, -11, 2, {33, 34}, {80, 21120, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"karp2", 0, -14, 1, {49, 115}, {80, 10270, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"karp2", 1, 7, 1, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47}, {96, 15200, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"karp2", 2, -11, 2, {33, 34}, {160, 41976, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"howard", 0, -14, 1, {49, 115}, {5, 650, 35, 158, 0, 0, 0, 0, 11, 0}},
      {"howard", 1, 7, 1, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47}, {1, 160, 0, 48, 0, 0, 0, 0, 1, 0}},
      {"howard", 2, -11, 2, {33, 34}, {3, 792, 23, 234, 0, 0, 0, 0, 7, 0}},
      {"howard_ratio", 0, -29, 6, {120, 38, 88}, {8, 1040, 59, 85, 0, 0, 0, 0, 16, 0}},
      {"howard_ratio", 1, 7, 1, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47}, {1, 160, 0, 48, 0, 0, 0, 0, 1, 0}},
      {"howard_ratio", 2, -7, 3, {70, 71}, {4, 1056, 33, 314, 0, 0, 0, 0, 8, 0}},
      {"lawler", 0, -14, 1, {49, 115}, {36, 112710, 5034, 0, 0, 0, 0, 37, 0, 0}},
      {"lawler", 1, 7, 1, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47}, {0, 160, 0, 0, 0, 0, 0, 1, 0, 0}},
      {"lawler", 2, -11, 2, {34, 33}, {36, 499224, 22352, 0, 0, 0, 0, 37, 0, 0}},
      {"lawler_ratio", 0, -29, 6, {38, 88, 120}, {36, 112580, 3410, 0, 0, 0, 0, 37, 0, 0}},
      {"lawler_ratio", 1, 7, 1, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47}, {0, 160, 0, 0, 0, 0, 0, 1, 0, 0}},
      {"lawler_ratio", 2, -7, 3, {70, 71}, {35, 440352, 27293, 0, 0, 0, 0, 36, 0, 0}},
      {"lawler_improved", 0, -14, 1, {49, 115}, {34, 26910, 1878, 0, 0, 0, 0, 35, 0, 0}},
      {"lawler_improved", 1, 7, 1, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47}, {0, 160, 0, 0, 0, 0, 0, 1, 0, 0}},
      {"lawler_improved", 2, -11, 2, {34, 33}, {33, 38808, 6447, 0, 0, 0, 0, 34, 0, 0}},
  };
  return table;
}

TEST(TiledKernels, SolverResultsMatchPinnedRecord) {
  const std::vector<Graph> graphs = pin_instances();
  std::size_t checked = 0;
  for (const char* name : {"karp", "karp2", "howard", "howard_ratio", "lawler",
                           "lawler_ratio", "lawler_improved"}) {
    const auto solver = SolverRegistry::instance().create(name);
    for (int gi = 0; gi < static_cast<int>(graphs.size()); ++gi) {
      const Graph& g = graphs[static_cast<std::size_t>(gi)];
      const CycleResult r = solver->kind() == ProblemKind::kCycleMean
                                ? minimum_cycle_mean(g, *solver)
                                : minimum_cycle_ratio(g, *solver);
      const auto pin = std::find_if(pins().begin(), pins().end(), [&](const Pin& p) {
        return p.solver == std::string(name) && p.instance == gi;
      });
      if (pin == pins().end()) {
        ADD_FAILURE() << "no pin for " << render_pin(name, gi, r);
        continue;
      }
      ASSERT_TRUE(r.has_cycle) << name << " graph#" << gi;
      EXPECT_EQ(r.value, Rational(pin->num, pin->den)) << render_pin(name, gi, r);
      EXPECT_EQ(r.cycle, pin->cycle) << render_pin(name, gi, r);
      EXPECT_EQ(r.counters, pin->counters) << render_pin(name, gi, r);
      ++checked;
    }
  }
  EXPECT_EQ(checked, pins().size());
}

// --- Pool metrics: once per pool lifetime (satellite 1) ---------------

std::uint64_t sum_worker_counter(obs::MetricsRegistry& m, const char* base) {
  std::uint64_t total = 0;
  for (int w = 0; w < 64; ++w) {
    total += m.counter(obs::labeled_name(base, {{"worker", std::to_string(w)}}))
                 .value();
  }
  return total;
}

TEST(PoolMetrics, SolveManyCountsEachInstanceTaskExactlyOnce) {
  std::vector<Graph> graphs;
  for (int s = 0; s < 6; ++s) {
    graphs.push_back(
        gen::scc_chain(9, 5, 1, 77, 40 + static_cast<std::uint64_t>(s)));
  }
  const auto solver = SolverRegistry::instance().create("howard");
  obs::MetricsRegistry metrics;
  const SolveOptions options{.num_threads = 4, .metrics = &metrics};
  (void)solve_many(graphs, *solver, options);
  // One pool task per instance, accumulated once despite the pool
  // serving several waves of cumulative worker stats.
  EXPECT_EQ(sum_worker_counter(metrics, "mcr_pool_tasks_total"), graphs.size());
  (void)solve_many(graphs, *solver, options);
  EXPECT_EQ(sum_worker_counter(metrics, "mcr_pool_tasks_total"),
            2 * graphs.size());
}

TEST(PoolMetrics, ComponentModeCountsOneTaskPerCyclicComponent) {
  const Graph g = gen::scc_chain(12, 5, 1, 99, 17);
  const auto solver = SolverRegistry::instance().create("howard");
  obs::MetricsRegistry metrics;
  (void)minimum_cycle_mean(g, *solver,
                           SolveOptions{.num_threads = 4, .metrics = &metrics});
  const std::uint64_t cyclic =
      metrics.counter("mcr_components_cyclic_total").value();
  ASSERT_GT(cyclic, 1u);
  EXPECT_EQ(sum_worker_counter(metrics, "mcr_pool_tasks_total"), cyclic);
}

// --- Tile mode engages the pool for one giant SCC (satellite 2) -------

TEST(TiledKernels, SingleComponentWithManyTilesEngagesThePool) {
  const Graph g = gen::torus(10, 10, 1, 1000, 19);  // one SCC, 200 arcs
  const auto solver = SolverRegistry::instance().create("howard");
  obs::MetricsRegistry metrics;
  (void)minimum_cycle_mean(
      g, *solver,
      SolveOptions{.num_threads = 8, .tile_arcs = 16, .metrics = &metrics});
  EXPECT_EQ(metrics.counter("mcr_components_cyclic_total").value(), 1u);
  // Without tile mode a 1-component graph would never submit a task.
  EXPECT_GT(sum_worker_counter(metrics, "mcr_pool_tasks_total"), 0u);
  EXPECT_GT(metrics.counter("mcr_ops_tiles_total").value(), 0u);
}

// --- mcr_ops_tiles_* are thread-independent ---------------------------

std::map<std::string, std::uint64_t> tile_counters(int threads,
                                                   std::int32_t tile_arcs) {
  const Graph g = gen::torus(8, 8, 1, 500, 23);
  const auto solver = SolverRegistry::instance().create("karp");
  obs::MetricsRegistry metrics;
  (void)minimum_cycle_mean(g, *solver,
                           SolveOptions{.num_threads = threads,
                                        .tile_arcs = tile_arcs,
                                        .metrics = &metrics});
  std::map<std::string, std::uint64_t> out;
  for (const char* name : {"mcr_ops_tiles_partitions_total",
                           "mcr_ops_tiles_total", "mcr_ops_tiles_waves_total"}) {
    out[name] = metrics.counter(name).value();
  }
  return out;
}

TEST(TiledKernels, TileCountersIndependentOfThreadCount) {
  const auto reference = tile_counters(1, 32);
  EXPECT_GT(reference.at("mcr_ops_tiles_total"), 0u);
  EXPECT_GT(reference.at("mcr_ops_tiles_waves_total"), 0u);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(tile_counters(threads, 32), reference) << threads;
  }
  // Untiled solves export no tile work at all.
  const auto untiled = tile_counters(8, 0);
  EXPECT_EQ(untiled.at("mcr_ops_tiles_total"), 0u);
}

}  // namespace
}  // namespace mcr
