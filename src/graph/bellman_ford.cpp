#include "graph/bellman_ford.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "support/checked.h"

namespace mcr {

namespace {

/// Follows parent arcs from `start` to locate and return one cycle in
/// the parent forest. `parent[v]` is the arc that last relaxed v.
std::vector<ArcId> extract_cycle(const Graph& g, const std::vector<ArcId>& parent,
                                 NodeId start) {
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  // Walk n steps to guarantee we are standing on the cycle itself.
  NodeId v = start;
  for (std::size_t i = 0; i < n; ++i) {
    const ArcId pa = parent[static_cast<std::size_t>(v)];
    v = g.src(pa);
  }
  // Collect arcs around the cycle.
  std::vector<ArcId> rev;
  NodeId u = v;
  do {
    const ArcId pa = parent[static_cast<std::size_t>(u)];
    rev.push_back(pa);
    u = g.src(pa);
  } while (u != v);
  std::reverse(rev.begin(), rev.end());
  return rev;
}

template <typename Cost>
struct BfCore {
  bool has_negative_cycle = false;
  std::vector<ArcId> cycle;
  std::vector<Cost> dist;
};

/// A value no real relaxation candidate reaches: the fold identity for
/// the per-node min. A candidate that only ties it does not win the
/// fold, and could not have lowered any distance either, so exact
/// headroom does not matter.
template <typename Cost>
Cost fold_identity() {
  if constexpr (std::is_same_v<Cost, double>) {
    return std::numeric_limits<double>::infinity();
  } else if constexpr (std::is_same_v<Cost, CheckedI64>) {
    return CheckedI64(std::numeric_limits<std::int64_t>::max());
  } else {
    return static_cast<Cost>(static_cast<int128>(1) << 126);
  }
}

/// Shared Bellman-Ford core over any arithmetic cost type. `Cost` may be
/// wider than the input cost type (the int128 promotion path) or
/// overflow-checked (CheckedI64, which throws NumericOverflow instead
/// of wrapping).
///
/// Every pass is a snapshot sweep over the in-arc CSR, run through the
/// tiled engine (graph/arc_tiles.h): node v's new distance is the min
/// over its predecessors of snapshot[u] + cost, ties broken by CSR
/// position (= ascending arc id). The untiled case is the same engine
/// with a single tile, so results are bit-identical for every tile
/// size and thread count.
template <typename Cost, typename CostIn>
BfCore<Cost> run_bellman_ford(const Graph& g, std::span<const CostIn> cost,
                              OpCounters* counters, const TileExec& tiles) {
  if (cost.size() != static_cast<std::size_t>(g.num_arcs())) {
    throw std::invalid_argument("bellman_ford: cost array size mismatch");
  }
  const NodeId n = g.num_nodes();
  const std::size_t un = static_cast<std::size_t>(n);
  BfCore<Cost> out;
  out.dist.assign(un, Cost{0});
  std::vector<Cost> snapshot(un, Cost{0});
  std::vector<ArcId> parent(un, kInvalidArc);

  using Sweep = TiledSweep<Cost>;
  Sweep sweep(g, SweepSide::kIn, SweepPayload::kNone, tiles);
  const std::vector<CostIn> cost_pos = sweep.gather(cost);

  std::uint64_t relaxations = 0;
  NodeId relaxed_node = kInvalidNode;
  for (NodeId pass = 0; pass <= n; ++pass) {
    snapshot = out.dist;
    // The tally counts the relaxed nodes and keeps the last one; both
    // are order-free folds, so they are schedule-independent.
    const SweepTally tally = sweep.run(
        fold_identity<Cost>(),
        [&](std::int32_t p) {
          return snapshot[static_cast<std::size_t>(sweep.other(p))] +
                 Cost(cost_pos[static_cast<std::size_t>(p)]);
        },
        [&](NodeId v, const Cost& best, std::int32_t pos) {
          if (pos == Sweep::kNoPosition || !(best < snapshot[static_cast<std::size_t>(v)])) {
            return false;
          }
          out.dist[static_cast<std::size_t>(v)] = best;
          parent[static_cast<std::size_t>(v)] = sweep.arc(pos);
          return true;
        });
    if (counters != nullptr) {
      counters->arc_scans += static_cast<std::uint64_t>(sweep.positions());
    }
    relaxations += tally.changed;
    relaxed_node = tally.last_changed;
    if (relaxed_node == kInvalidNode) break;  // converged early
  }
  if (counters != nullptr) counters->relaxations += relaxations;

  if (relaxed_node != kInvalidNode) {
    out.has_negative_cycle = true;
    out.cycle = extract_cycle(g, parent, relaxed_node);
    out.dist.clear();
  }
  return out;
}

}  // namespace

BellmanFordResult bellman_ford_all(const Graph& g, std::span<const std::int64_t> cost,
                                   OpCounters* counters, const TileExec& tiles) {
  BellmanFordResult out;
  try {
    BfCore<CheckedI64> core = run_bellman_ford<CheckedI64>(g, cost, counters, tiles);
    out.has_negative_cycle = core.has_negative_cycle;
    out.cycle = std::move(core.cycle);
    out.dist.reserve(core.dist.size());
    for (const CheckedI64 d : core.dist) out.dist.push_back(d.value());
    return out;
  } catch (const NumericOverflow&) {
    // A distance sum wrapped int64: re-run the whole recurrence in
    // int128 rather than continuing on a wrapped value. Cycle detection
    // and the witness stay exact; the potentials are narrowed back only
    // when they fit (when they do not, no int64 caller could have used
    // them anyway, and the wide result still carries the verdict).
    if (counters) ++counters->numeric_promotions;
  }
  BfCore<int128> core = run_bellman_ford<int128>(g, cost, counters, tiles);
  out.has_negative_cycle = core.has_negative_cycle;
  out.cycle = std::move(core.cycle);
  out.dist.reserve(core.dist.size());
  for (const int128 d : core.dist) {
    if (d > INT64_MAX || d < INT64_MIN) {
      throw NumericOverflow("bellman_ford potentials (not representable in int64)");
    }
    out.dist.push_back(static_cast<std::int64_t>(d));
  }
  return out;
}

BellmanFordWideResult bellman_ford_all_wide(const Graph& g, std::span<const int128> cost,
                                            OpCounters* counters, const TileExec& tiles) {
  BfCore<int128> core = run_bellman_ford<int128>(g, cost, counters, tiles);
  BellmanFordWideResult out;
  out.has_negative_cycle = core.has_negative_cycle;
  out.cycle = std::move(core.cycle);
  return out;
}

BellmanFordRealResult bellman_ford_all_real(const Graph& g, std::span<const double> cost,
                                            OpCounters* counters, const TileExec& tiles) {
  BfCore<double> core = run_bellman_ford<double>(g, cost, counters, tiles);
  BellmanFordRealResult out;
  out.has_negative_cycle = core.has_negative_cycle;
  out.cycle = std::move(core.cycle);
  out.dist = std::move(core.dist);
  return out;
}

bool has_negative_cycle(const Graph& g, std::span<const std::int64_t> cost,
                        OpCounters* counters, const TileExec& tiles) {
  return bellman_ford_all(g, cost, counters, tiles).has_negative_cycle;
}

}  // namespace mcr
