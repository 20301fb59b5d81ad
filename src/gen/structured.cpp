#include "gen/structured.h"

#include <limits>
#include <stdexcept>

#include "support/prng.h"

namespace mcr::gen {

Graph ring(const std::vector<std::int64_t>& weights) {
  const NodeId n = static_cast<NodeId>(weights.size());
  if (n < 1) throw std::invalid_argument("ring: need >= 1 node");
  std::vector<ArcSpec> arcs;
  arcs.reserve(weights.size());
  for (NodeId v = 0; v < n; ++v) {
    arcs.push_back(ArcSpec{v, (v + 1 == n) ? 0 : v + 1, weights[static_cast<std::size_t>(v)], 1});
  }
  return Graph(n, arcs);
}

Graph random_ring(NodeId n, std::int64_t lo, std::int64_t hi, std::uint64_t seed) {
  if (lo > hi) throw std::invalid_argument("ring: empty weight interval");
  Prng rng(seed);
  std::vector<std::int64_t> weights(static_cast<std::size_t>(n));
  for (auto& w : weights) w = rng.uniform_int(lo, hi);
  return ring(weights);
}

Graph complete(NodeId n, std::int64_t lo, std::int64_t hi, std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument("complete: need >= 2 nodes");
  Prng rng(seed);
  std::vector<ArcSpec> arcs;
  arcs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) continue;
      arcs.push_back(ArcSpec{u, v, rng.uniform_int(lo, hi), 1});
    }
  }
  return Graph(n, arcs);
}

Graph layered_feedback(NodeId layers, NodeId width, std::int64_t lo, std::int64_t hi,
                       std::uint64_t seed) {
  if (layers < 1 || width < 1) {
    throw std::invalid_argument("layered_feedback: layers, width >= 1");
  }
  Prng rng(seed);
  const NodeId n = layers * width;
  std::vector<ArcSpec> arcs;
  for (NodeId l = 0; l + 1 < layers; ++l) {
    for (NodeId i = 0; i < width; ++i) {
      for (NodeId j = 0; j < width; ++j) {
        arcs.push_back(
            ArcSpec{l * width + i, (l + 1) * width + j, rng.uniform_int(lo, hi), 1});
      }
    }
  }
  // One feedback arc closing the structure into a single SCC-spanning loop.
  arcs.push_back(ArcSpec{(layers - 1) * width, 0, rng.uniform_int(lo, hi), 1});
  return Graph(n, arcs);
}

Graph scc_chain(NodeId k, NodeId ring_size, std::int64_t lo, std::int64_t hi,
                std::uint64_t seed) {
  if (k < 1 || ring_size < 1) throw std::invalid_argument("scc_chain: k, ring_size >= 1");
  Prng rng(seed);
  const NodeId n = k * ring_size;
  std::vector<ArcSpec> arcs;
  for (NodeId c = 0; c < k; ++c) {
    const NodeId base = c * ring_size;
    for (NodeId v = 0; v < ring_size; ++v) {
      const NodeId next = (v + 1 == ring_size) ? base : base + v + 1;
      arcs.push_back(ArcSpec{base + v, next, rng.uniform_int(lo, hi), 1});
    }
    if (c + 1 < k) {
      arcs.push_back(ArcSpec{base, base + ring_size, rng.uniform_int(lo, hi), 1});
    }
  }
  return Graph(n, arcs);
}

Graph torus(NodeId h, NodeId w, std::int64_t lo, std::int64_t hi, std::uint64_t seed) {
  if (h < 1 || w < 1) throw std::invalid_argument("torus: h, w >= 1");
  // Node ids r * w + c and the 2hw arcs must fit NodeId / ArcId.
  if (2 * std::int64_t{h} * w > std::numeric_limits<ArcId>::max()) {
    throw std::invalid_argument("torus: 2 * h * w arcs exceed 2^31 - 1");
  }
  Prng rng(seed);
  const auto id = [&](NodeId r, NodeId c) { return r * w + c; };
  std::vector<ArcSpec> arcs;
  for (NodeId r = 0; r < h; ++r) {
    for (NodeId c = 0; c < w; ++c) {
      arcs.push_back(ArcSpec{id(r, c), id(r, (c + 1) % w), rng.uniform_int(lo, hi), 1});
      arcs.push_back(ArcSpec{id(r, c), id((r + 1) % h, c), rng.uniform_int(lo, hi), 1});
    }
  }
  return Graph(h * w, arcs);
}

Graph path(NodeId n, std::int64_t weight) {
  if (n < 1) throw std::invalid_argument("path: need >= 1 node");
  std::vector<ArcSpec> arcs;
  for (NodeId v = 0; v + 1 < n; ++v) arcs.push_back(ArcSpec{v, v + 1, weight, 1});
  return Graph(n, arcs);
}

}  // namespace mcr::gen
