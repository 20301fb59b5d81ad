// Karp2: the space-efficient two-pass version of Karp's algorithm
// (suggested to the authors by S. Gaubert; §2.2 of the paper).
//
// Karp's algorithm needs the whole Theta(n^2) D table only to evaluate
// min_v max_k (D_n(v) - D_k(v)) / (n - k) at the end. Karp2 runs the
// recurrence twice with two rolling rows of Theta(n) space: pass 1
// computes D_n(v); pass 2 recomputes each D_k(v) in order and folds it
// into the running max for each v. The paper observes this "roughly
// doubles the running time, as expected" (§4.4) — the shape
// bench_karp_variants reproduces.
//
// Each level advance is a snapshot sweep (level k reads only level
// k-1), so it runs through the tiled engine (graph/arc_tiles.h); the
// pass-2 per-node max fold rides inside the same sweep's apply step.
// Both are per-node-independent, so results are bit-identical for any
// tile size and thread count.
#include <limits>
#include <vector>

#include "algo/algorithms.h"
#include "core/result.h"
#include "obs/obs.h"
#include "support/int128.h"

namespace mcr {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

class Karp2Solver final : public Solver {
 public:
  explicit Karp2Solver(const SolverConfig&) {}

  [[nodiscard]] std::string name() const override { return "karp2"; }
  [[nodiscard]] ProblemKind kind() const override { return ProblemKind::kCycleMean; }

  [[nodiscard]] CycleResult solve_scc(const Graph& g) const override {
    return solve_scc(g, TileExec{});
  }

  [[nodiscard]] CycleResult solve_scc(const Graph& g,
                                      const TileExec& tiles) const override {
    const NodeId n = g.num_nodes();
    const std::size_t un = static_cast<std::size_t>(n);
    CycleResult result;

    std::vector<std::int64_t> prev(un, kInf);
    std::vector<std::int64_t> cur(un, kInf);

    TiledSweep<std::int64_t> sweep(g, SweepSide::kIn, SweepPayload::kWeight, tiles);
    const auto candidate = [&](std::int32_t p) -> std::int64_t {
      const std::int64_t du = prev[static_cast<std::size_t>(sweep.other(p))];
      // Summed unsigned so the discarded kInf + w cannot overflow; the
      // select then compiles to a conditional move, not a branch.
      const auto sum = static_cast<std::int64_t>(static_cast<std::uint64_t>(du) +
                                                 static_cast<std::uint64_t>(sweep.weight(p)));
      return du == kInf ? kInf : sum;
    };
    const auto advance = [&](const auto& apply) {
      sweep.run(kInf, candidate, apply);
      result.counters.arc_scans += static_cast<std::uint64_t>(sweep.positions());
      prev.swap(cur);
    };
    const auto store = [&](NodeId v, std::int64_t best) {
      cur[static_cast<std::size_t>(v)] = best;
    };

    // Pass 1: compute D_n into `prev`.
    prev[0] = 0;
    for (NodeId k = 1; k <= n; ++k) advance(store);
    std::vector<std::int64_t> dn = prev;

    // Pass 2: recompute D_k for k = 0..n-1, folding the max ratio with
    // raw 128-bit fraction comparisons. The fold for level k rides in
    // the advance to level k (each node folds its own slot, so the
    // tiled sweep stays race-free and deterministic).
    std::vector<std::int64_t> vmax_num(un, 0);
    std::vector<std::int64_t> vmax_den(un, 0);  // 0 marks "no value yet"
    const auto fold = [&](NodeId v, std::int64_t dk, NodeId k) {
      if (dk == kInf || dn[static_cast<std::size_t>(v)] == kInf) return;
      const std::int64_t num = dn[static_cast<std::size_t>(v)] - dk;
      const std::int64_t den = n - k;
      if (vmax_den[static_cast<std::size_t>(v)] == 0 ||
          static_cast<int128>(num) * vmax_den[static_cast<std::size_t>(v)] >
              static_cast<int128>(vmax_num[static_cast<std::size_t>(v)]) * den) {
        vmax_num[static_cast<std::size_t>(v)] = num;
        vmax_den[static_cast<std::size_t>(v)] = den;
      }
    };
    prev.assign(un, kInf);
    cur.assign(un, kInf);
    prev[0] = 0;
    fold(0, 0, 0);  // level 0 has the single finite entry D_0(0) = 0
    for (NodeId k = 1; k < n; ++k) {
      advance([&](NodeId v, std::int64_t best) {
        cur[static_cast<std::size_t>(v)] = best;
        fold(v, best, k);
      });
    }
    result.counters.iterations = 2 * static_cast<std::uint64_t>(n);
    obs::emit(obs::EventKind::kIteration, "karp2.levels", 2 * n);

    bool found = false;
    std::int64_t best_num = 0;
    std::int64_t best_den = 1;
    for (NodeId v = 0; v < n; ++v) {
      if (vmax_den[static_cast<std::size_t>(v)] == 0) continue;
      if (!found ||
          static_cast<int128>(vmax_num[static_cast<std::size_t>(v)]) * best_den <
              static_cast<int128>(best_num) * vmax_den[static_cast<std::size_t>(v)]) {
        best_num = vmax_num[static_cast<std::size_t>(v)];
        best_den = vmax_den[static_cast<std::size_t>(v)];
        found = true;
      }
    }
    if (!found) return result;

    result.has_cycle = true;
    result.value = Rational(best_num, best_den);
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> make_karp2_solver(const SolverConfig& config) {
  return std::make_unique<Karp2Solver>(config);
}

}  // namespace mcr
