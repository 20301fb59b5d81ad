// Arc tiling: cache-sized work items over a CSR position range, and the
// relaxation engine that runs them.
//
// Parallelizing across SCCs alone leaves a single giant SCC (the common
// SPRAND shape) serial. The relaxation loops at the heart of
// Bellman-Ford, Karp, Karp2 and Howard's improve step are all the same
// shape — "for every node v, fold a min over v's (in- or out-) CSR
// positions, then conditionally update v" — and that shape tiles:
// ArcTilePartition splits a CSR position range [0, m) into tiles of at
// most `target_arcs` positions each. A tile may start or end in the
// middle of a high-degree node's position range (katana's deltaTile
// idea), so one hub node never serializes a wave.
//
// Engine layout (TiledSweep, per solve):
//   * streams in CSR-position order: the node each position folds into,
//     the arc's other endpoint, its weight, and — for ratio kernels
//     only — its transit. 16 B per arc for mean kernels, 24 B per arc
//     for ratio kernels (Bellman-Ford gathers its caller's costs in
//     place of the weight stream), plus one fold slot per node. Kernels
//     read `other(p)` / `weight(p)` instead of chasing arc ids, and read
//     the arc id once, for the winning position in apply;
//   * a flat fold: one pass over a tile's positions with a running
//     accumulator that restarts where the node changes and is stored to
//     that node's fold slot at every step. The compare and the restart
//     are selects, so an integer fold has no per-node loop exit to
//     mispredict at SPRAND's ~3 arcs per node. (For a double fold GCC
//     keeps a branch on the restart; a bitwise select measured twice as
//     slow there, since it routes the accumulator through integer
//     registers. Folding into the slot in memory rather than a
//     register measured 10-15% slower in Karp2 and Bellman-Ford.);
//   * a tally instead of shared counters: an apply reports whether it
//     changed its node and the engine counts per tile, so kernels do no
//     atomic read-modify-write per relaxation (two of them per relaxed
//     node bounded Bellman-Ford at a high relaxation rate).
// The streams stay solve scratch rather than Graph members: a graph is
// resident for as long as a service registry entry or a pack view
// lives, and its bytes are counted there, while the streams serve one
// CSR side and one payload for the length of one solve.
//
// Determinism contract: a tiled sweep produces bit-identical results
// for ANY tile size and ANY thread count, including the serial
// single-tile case. TiledSweep achieves this by construction:
//   * candidates are folded per node with a strict `<` in ascending
//     position order (first position wins ties), so an interior node's
//     fold equals the serial fold;
//   * a node split across tiles is never updated by workers — each tile
//     stashes its partial fold, and a serial merge walks the partials
//     in tile order (= ascending position order) before applying once.
// The serial path runs the identical engine with one tile, so
// tile_arcs == 0 is not a separate code path, just a trivial partition.
#ifndef MCR_GRAPH_ARC_TILES_H
#define MCR_GRAPH_ARC_TILES_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.h"

namespace mcr {

class ThreadPool;

/// Tile-engine work counters, owned by the driver and exported as the
/// mcr_ops_tiles_* metrics. Kept out of OpCounters deliberately: the
/// OpCounters determinism contract makes solver work equal for every
/// (num_threads, tile_arcs) pair, while tile counts depend on tile_arcs
/// by definition (they are still independent of the thread count).
struct TileStats {
  std::atomic<std::uint64_t> partitions{0};  // ArcTilePartition builds
  std::atomic<std::uint64_t> tiles{0};       // tiles executed, all waves
  std::atomic<std::uint64_t> waves{0};       // sweeps run
};

/// How a solver should run its relaxation sweeps. Passed by the driver
/// into Solver::solve_scc. `tile_arcs <= 0` keeps every sweep a single
/// tile; `pool` may be null even when tiling is enabled (the partition
/// is still built so results and TileStats stay thread-independent, the
/// tiles just run inline).
struct TileExec {
  ThreadPool* pool = nullptr;
  std::int32_t tile_arcs = 0;
  TileStats* stats = nullptr;

  [[nodiscard]] bool enabled() const { return tile_arcs > 0; }
};

/// One tile: CSR positions [pos_begin, pos_end) covering nodes
/// [node_begin, node_end] (inclusive — a node split across tiles
/// appears in more than one).
struct ArcTile {
  NodeId node_begin = 0;
  NodeId node_end = 0;
  std::int32_t pos_begin = 0;
  std::int32_t pos_end = 0;
  /// node_begin's positions continue before pos_begin (previous tile).
  bool shares_first = false;
  /// node_end's positions continue at/after pos_end (next tile).
  bool shares_last = false;
};

/// Splits the position range of a CSR offset array `first` (size n+1,
/// non-decreasing, first[0] == 0) into tiles of at most `target_arcs`
/// positions. Every node in [0, n) is covered by at least one tile
/// (zero-degree nodes included), every position by exactly one.
/// `target_arcs <= 0` produces a single tile covering everything.
class ArcTilePartition {
 public:
  ArcTilePartition(std::span<const std::int32_t> first, std::int32_t target_arcs);

  [[nodiscard]] const std::vector<ArcTile>& tiles() const { return tiles_; }
  [[nodiscard]] std::size_t size() const { return tiles_.size(); }
  /// Total CSR positions covered (= first.back()).
  [[nodiscard]] std::int32_t positions() const { return positions_; }

 private:
  std::vector<ArcTile> tiles_;
  std::int32_t positions_ = 0;
};

/// Runs fn(0..count) either inline (null pool or a single item) or as
/// pool tasks. Exceptions are captured per slot and the lowest-index
/// one is rethrown, so failure behaviour is schedule-independent.
void run_tiles(ThreadPool* pool, std::size_t count,
               const std::function<void(std::size_t)>& fn);

/// What a wave's applies changed. An apply that returns bool reports
/// whether it changed its node; run() counts those and keeps the highest
/// such node. Both folds (sum; max) are order-free, so the tally is the
/// same for every tiling and thread count, and kernels keep no shared
/// counters of their own.
struct SweepTally {
  std::uint64_t changed = 0;
  NodeId last_changed = kInvalidNode;

  void note(NodeId v, bool c) {
    changed += c ? 1 : 0;
    last_changed = c ? std::max(last_changed, v) : last_changed;
  }
  void add(const SweepTally& o) {
    changed += o.changed;
    last_changed = std::max(last_changed, o.last_changed);
  }
};

/// Which CSR a sweep folds over. kIn: predecessor recurrences (Bellman-
/// Ford, Karp, Karp2) fold each node's in-arcs, and other(p) is the
/// arc's src. kOut: Howard's improve step folds each node's out-arcs,
/// and other(p) is the arc's dst.
enum class SweepSide { kIn, kOut };

/// The per-arc payload streams a sweep gathers besides node and other
/// endpoint. Mean kernels take kWeight (their transit is always 1);
/// ratio kernels take kWeightTransit; Bellman-Ford takes kNone and
/// gather()s its caller's per-arc costs instead.
enum class SweepPayload { kNone, kWeight, kWeightTransit };

/// The shared relaxation engine (layout and determinism contract in the
/// file comment). Constructed once per solve over one side of a graph's
/// CSR, then run() once per sweep/wave.
///
/// run(none, candidate, apply):
///   * `candidate(pos) -> V` evaluates CSR position `pos`; called
///     concurrently from workers, must only read shared state that is
///     constant for the duration of the wave. May throw (the first
///     tile's exception, in tile order, is rethrown after the wave).
///   * per node the candidates fold with a strict `V::operator<`
///     starting from `none`; ties keep the earliest position, and a
///     candidate merely equal to `none` does not win.
///   * `apply(v, best, pos)` commits the folded result; called exactly
///     once per covered node (including zero-degree nodes). `pos` is the
///     winning CSR position, or kNoPosition when no candidate beat
///     `none`. A kernel that needs no position passes `apply(v, best)`
///     and the fold tracks none. Interior nodes are applied from worker
///     threads — apply may touch per-node slots freely but must use
///     atomics for any cross-node shared state. Nodes split across
///     tiles are applied on the calling thread after the wave. An apply
///     that returns bool says whether it changed v, and run() returns
///     the SweepTally of those answers.
template <typename V>
class TiledSweep {
 public:
  static constexpr std::int32_t kNoPosition = -1;

  TiledSweep(const Graph& g, SweepSide side, SweepPayload payload, const TileExec& exec)
      : first_(side == SweepSide::kIn ? g.in_first() : g.out_first()),
        ids_(side == SweepSide::kIn ? g.in_arc_ids() : g.out_arc_ids()),
        partition_(first_, exec.enabled() ? exec.tile_arcs : 0),
        pool_(exec.pool),
        stats_(exec.stats),
        node_(ids_.size()),
        other_(gather(side == SweepSide::kIn ? g.srcs() : g.dsts())),
        fold_(first_.size() - 1) {
    for (std::size_t v = 0; v + 1 < first_.size(); ++v) {
      std::fill(node_.begin() + first_[v], node_.begin() + first_[v + 1],
                static_cast<NodeId>(v));
      if (first_[v] == first_[v + 1]) isolated_.push_back(static_cast<NodeId>(v));
    }
    if (payload != SweepPayload::kNone) weight_ = gather(g.weights());
    if (payload == SweepPayload::kWeightTransit) transit_ = gather(g.transits());
    if (parallel()) {
      partials_.resize(partition_.size() * 2);
      tile_tally_.resize(partition_.size());
    }
    if (stats_ != nullptr) {
      stats_->partitions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Total positions one wave scans (= arc_scans per sweep).
  [[nodiscard]] std::int64_t positions() const { return partition_.positions(); }
  [[nodiscard]] std::size_t num_tiles() const { return partition_.size(); }

  /// Position p's arc id: read once per applied winner, not per scan.
  [[nodiscard]] ArcId arc(std::int32_t p) const { return ids_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] NodeId other(std::int32_t p) const {
    return other_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::int64_t weight(std::int32_t p) const {
    return weight_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::int64_t transit(std::int32_t p) const {
    return transit_[static_cast<std::size_t>(p)];
  }

  /// A per-arc array (indexed by arc id) laid out in position order.
  template <typename T>
  [[nodiscard]] std::vector<T> gather(std::span<const T> per_arc) const {
    std::vector<T> out(ids_.size());
    for (std::size_t p = 0; p < ids_.size(); ++p) {
      out[p] = per_arc[static_cast<std::size_t>(ids_[p])];
    }
    return out;
  }

  template <typename Candidate, typename Apply>
  SweepTally run(const V& none, const Candidate& candidate, const Apply& apply) {
    const std::vector<ArcTile>& tiles = partition_.tiles();
    if (tiles.empty()) return {};
    // Wave accounting counts the partition's tiles whether or not a
    // pool executes them — that keeps mcr_ops_tiles_* a function of
    // (graph, tile_arcs) alone, independent of the thread count.
    if (stats_ != nullptr) {
      stats_->waves.fetch_add(1, std::memory_order_relaxed);
      stats_->tiles.fetch_add(tiles.size(), std::memory_order_relaxed);
    }

    // No pool: the whole range is one tile. By the determinism contract
    // this produces exactly what the tile-merge path produces.
    if (!parallel()) {
      const NodeId n = static_cast<NodeId>(first_.size() - 1);
      return fold_interior(0, n - 1, 0, partition_.positions(), none, candidate, apply);
    }

    run_tiles(pool_, tiles.size(), [&](std::size_t t) {
      const ArcTile& tile = tiles[t];
      Partial* slot = &partials_[t * 2];
      slot[0].node = kInvalidNode;
      slot[1].node = kInvalidNode;
      NodeId lo = tile.node_begin;
      NodeId hi = tile.node_end;
      std::int32_t b = tile.pos_begin;
      std::int32_t e = tile.pos_end;
      if (tile.shares_first) {
        const std::int32_t end = std::min(first_[static_cast<std::size_t>(lo) + 1], e);
        *slot++ = Partial{lo, fold_positions<kTracksPosition<Apply>>(b, end, none, candidate)};
        b = end;
        ++lo;
      }
      if (tile.shares_last && lo <= hi) {
        const std::int32_t begin = std::max(first_[static_cast<std::size_t>(hi)], b);
        *slot = Partial{hi, fold_positions<kTracksPosition<Apply>>(begin, e, none, candidate)};
        e = begin;
        --hi;
      }
      tile_tally_[t] = fold_interior(lo, hi, b, e, none, candidate, apply);
    });
    SweepTally tally;
    for (const SweepTally& t : tile_tally_) tally.add(t);

    // Serial merge of the split-node partials, in tile (= position)
    // order: the fold over ordered sub-folds equals the serial fold,
    // and each split node is applied exactly once.
    NodeId pending_node = kInvalidNode;
    Slot pending{none, kNoPosition};
    for (const Partial& p : partials_) {
      if (p.node == kInvalidNode) continue;
      if (p.node != pending_node) {
        if (pending_node != kInvalidNode) {
          tally.note(pending_node, commit(apply, pending_node, pending));
        }
        pending_node = p.node;
        pending = p.best;
      } else if (p.best.val < pending.val) {
        pending = p.best;
      }
    }
    if (pending_node != kInvalidNode) {
      tally.note(pending_node, commit(apply, pending_node, pending));
    }
    return tally;
  }

 private:
  struct Slot {
    V val{};
    std::int32_t pos = kNoPosition;
  };
  struct Partial {
    NodeId node = kInvalidNode;
    Slot best;
  };

  [[nodiscard]] bool parallel() const { return partition_.size() > 1 && pool_ != nullptr; }

  /// apply(v, best, pos) wants the winning position; apply(v, best)
  /// does not, and then the fold tracks none.
  template <typename Apply>
  static constexpr bool kTracksPosition =
      std::is_invocable_v<const Apply&, NodeId, const V&, std::int32_t>;

  template <typename Apply>
  static bool commit(const Apply& apply, NodeId v, const Slot& s) {
    const auto call = [&] {
      if constexpr (kTracksPosition<Apply>) {
        return apply(v, s.val, s.pos);
      } else {
        return apply(v, s.val);
      }
    };
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      return false;
    } else {
      return call();
    }
  }

  /// One fold step: candidate p against (base, base_pos) with a strict
  /// `<`, so an earlier position keeps a tie. Written as selects, which
  /// compile to conditional moves.
  template <bool kPosition, typename Candidate>
  static void fold_step(Slot& acc, const V& base, std::int32_t base_pos, std::int32_t p,
                        const Candidate& candidate) {
    const V cand = candidate(p);
    const bool take = cand < base;
    acc.val = take ? cand : base;
    if constexpr (kPosition) {
      const std::int32_t mask = -static_cast<std::int32_t>(take);
      acc.pos = (p & mask) | (base_pos & ~mask);
    }
  }

  /// Folds positions [b, e), all of one node, from `none`.
  template <bool kPosition, typename Candidate>
  static Slot fold_positions(std::int32_t b, std::int32_t e, const V& none,
                             const Candidate& candidate) {
    Slot best{none, kNoPosition};
    for (std::int32_t p = b; p < e; ++p) {
      fold_step<kPosition>(best, best.val, best.pos, p, candidate);
    }
    return best;
  }

  /// The flat fold: nodes [lo, hi] own exactly positions [b, e). One
  /// running accumulator restarts from `none` where node(p) changes, and
  /// every step stores it to node(p)'s slot, so a node's slot ends with
  /// its full fold.
  template <typename Candidate, typename Apply>
  SweepTally fold_interior(NodeId lo, NodeId hi, std::int32_t b, std::int32_t e, const V& none,
                           const Candidate& candidate, const Apply& apply) {
    SweepTally tally;
    if (lo > hi) return tally;
    Slot* fold = fold_.data();
    const Slot identity{none, kNoPosition};
    // The pass below writes every node that has positions; only
    // zero-degree nodes (none in an SCC) need their slot reset.
    for (auto it = std::lower_bound(isolated_.begin(), isolated_.end(), lo);
         it != isolated_.end() && *it <= hi; ++it) {
      fold[*it] = identity;
    }
    const NodeId* node = node_.data();
    Slot acc = identity;
    NodeId prev = b < e ? node[b] : 0;
    for (std::int32_t p = b; p < e; ++p) {
      const NodeId v = node[p];
      const bool fresh = v != prev;
      prev = v;
      fold_step<kTracksPosition<Apply>>(acc, fresh ? identity.val : acc.val,
                                        fresh ? kNoPosition : acc.pos, p, candidate);
      fold[v] = acc;
    }
    for (NodeId v = lo; v <= hi; ++v) tally.note(v, commit(apply, v, fold[v]));
    return tally;
  }

  std::span<const std::int32_t> first_;
  std::span<const ArcId> ids_;
  ArcTilePartition partition_;
  ThreadPool* pool_ = nullptr;
  TileStats* stats_ = nullptr;
  std::vector<NodeId> node_;
  std::vector<NodeId> other_;
  std::vector<std::int64_t> weight_;
  std::vector<std::int64_t> transit_;
  std::vector<NodeId> isolated_;  // zero-degree nodes, ascending
  std::vector<Slot> fold_;
  std::vector<Partial> partials_;
  std::vector<SweepTally> tile_tally_;
};

}  // namespace mcr

#endif  // MCR_GRAPH_ARC_TILES_H
