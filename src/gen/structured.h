// Structured graph families for tests and stress cases.
//
// These exercise solver edge cases the random families miss: a single
// cycle (unique answer), complete graphs (maximum density), layered
// graphs with a deep feedback arc (long critical cycles — adversarial
// for Howard-style policy iteration), and multi-SCC chains (driver
// decomposition).
#ifndef MCR_GEN_STRUCTURED_H
#define MCR_GEN_STRUCTURED_H

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace mcr::gen {

/// Single directed cycle 0 -> 1 -> ... -> n-1 -> 0 with the given
/// weights (size n) and unit transit.
[[nodiscard]] Graph ring(const std::vector<std::int64_t>& weights);

/// Ring with uniform random weights in [lo, hi]; throws
/// std::invalid_argument when lo > hi.
[[nodiscard]] Graph random_ring(NodeId n, std::int64_t lo, std::int64_t hi,
                                std::uint64_t seed);

/// Complete digraph on n nodes (no self-loops), random weights in [lo, hi].
[[nodiscard]] Graph complete(NodeId n, std::int64_t lo, std::int64_t hi,
                             std::uint64_t seed);

/// `layers` layers of `width` nodes; consecutive layers fully connected
/// forward, plus one feedback arc from the last layer to the first. The
/// unique-ish critical cycle has length layers+... ~ layers, so policy
/// iteration needs long-range information.
[[nodiscard]] Graph layered_feedback(NodeId layers, NodeId width, std::int64_t lo,
                                     std::int64_t hi, std::uint64_t seed);

/// `k` disjoint rings of size `ring_size` connected in a chain by
/// one-way bridge arcs (k SCCs; answer is the min over rings).
[[nodiscard]] Graph scc_chain(NodeId k, NodeId ring_size, std::int64_t lo, std::int64_t hi,
                              std::uint64_t seed);

/// Two-dimensional torus (wrap-around grid) h x w, arcs right and down,
/// random weights in [lo, hi]. Strongly connected, density exactly 2.
[[nodiscard]] Graph torus(NodeId h, NodeId w, std::int64_t lo, std::int64_t hi,
                          std::uint64_t seed);

/// Simple path 0 -> 1 -> ... -> n-1 (acyclic; solvers must report
/// has_cycle == false through the driver).
[[nodiscard]] Graph path(NodeId n, std::int64_t weight = 1);

}  // namespace mcr::gen

#endif  // MCR_GEN_STRUCTURED_H
