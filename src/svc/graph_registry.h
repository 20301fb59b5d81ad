// Content-addressed graph registry: load once, solve many times.
//
// The server parses or generates a graph exactly once, fingerprints it
// (graph/fingerprint.h), and serves every later request on the same
// content from the resident copy — the "preloaded data behind a thin
// wire protocol" shape. Entries are shared_ptr<const Graph>: an evicted
// graph stays alive for any solve still holding it, and Graph itself is
// immutable so concurrent solves need no further synchronization.
//
// Capacity is bounded (LRU): a long-lived daemon fed a stream of
// distinct graphs must not grow without limit. Resident bytes are
// tracked per backing kind — builder-owned heap copies versus
// mmap-backed pack views — since eviction frees real memory for the
// former but only drops a reference to shared page cache for the
// latter.
//
// Aliases memoize graph sources (svc/graph_source.h): an entry keeps
// its few most recent source keys, and an alias index maps each key to
// its entry, so a repeated generator or DIMACS request skips rebuilding
// and fingerprinting. Evicting an entry erases its aliases, so the memo
// is bounded by `capacity` and never names a graph that is gone; and a
// fingerprint is a content address, so an alias never goes stale.
#ifndef MCR_SVC_GRAPH_REGISTRY_H
#define MCR_SVC_GRAPH_REGISTRY_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace mcr::obs {
class Counter;
class MetricsRegistry;
}  // namespace mcr::obs

namespace mcr::svc {

class GraphRegistry {
 public:
  /// A resident graph and its fingerprint hex; graph is nullptr when
  /// nothing is resident.
  struct Resident {
    std::shared_ptr<const Graph> graph;
    std::string fingerprint;
  };

  /// Source keys kept per entry; the oldest is dropped beyond this.
  static constexpr std::size_t kMaxAliases = 4;

  /// `capacity` = max resident graphs (LRU eviction beyond). With
  /// `metrics` set, maintains the mcr_graphs_resident and per-backing
  /// mcr_graph_bytes gauges (backing="alias" counts the alias key bytes
  /// held) and the mcr_graph_loads_total / mcr_graph_evictions_total /
  /// mcr_graph_alias_{hits,misses}_total counters.
  explicit GraphRegistry(std::size_t capacity,
                         obs::MetricsRegistry* metrics = nullptr);

  /// Registers g and returns its fingerprint hex. Idempotent: adding
  /// content that is already resident just touches the LRU entry.
  std::string add(Graph&& g);

  /// add(g), also recording `alias_key` (unless empty) as an alias of
  /// the entry. Returns the resident graph — the existing copy when the
  /// content was already resident. Idempotent, so two concurrent misses
  /// on one key may both build and add.
  Resident add(Graph&& g, const std::string& alias_key);

  /// Looks an alias key up (and touches its entry); graph is nullptr
  /// when no resident entry carries the key. Counts a hit or a miss.
  [[nodiscard]] Resident find_alias(const std::string& alias_key);

  /// Registers an externally owned graph (an mmap-backed pack view)
  /// under a fingerprint the caller already knows — the pack header
  /// carries it, so re-hashing the mapped arrays is skipped. Idempotent
  /// like add(); the shared_ptr keeps the backing mapping alive while
  /// the entry is resident.
  void add_shared(const std::string& fingerprint_hex, std::shared_ptr<const Graph> g);

  /// Looks a fingerprint up (and touches it). nullptr when absent.
  [[nodiscard]] std::shared_ptr<const Graph> find(const std::string& fingerprint_hex);

  [[nodiscard]] std::size_t size() const;

  /// Resident graph bytes by backing: heap bytes of builder-owned
  /// graphs and mapped bytes viewed by mmap-backed ones.
  [[nodiscard]] std::uint64_t builder_bytes() const;
  [[nodiscard]] std::uint64_t mmap_bytes() const;
  /// Bytes of alias keys held (DIMACS keys carry the whole text).
  [[nodiscard]] std::uint64_t alias_bytes() const;

 private:
  struct Entry {
    std::string fingerprint;
    std::shared_ptr<const Graph> graph;
    std::uint64_t bytes = 0;
    bool external = false;
    /// This entry's keys in alias_index_, oldest first. Element
    /// pointers of an unordered_map survive rehashing.
    std::vector<const std::string*> aliases;
  };
  using Lru = std::list<Entry>;

  /// Inserts (or touches) under the lock, attaches `alias_key`, and
  /// evicts beyond capacity. Returns the entry.
  Lru::iterator insert_locked(const std::string& fingerprint_hex,
                              std::shared_ptr<const Graph> g,
                              const std::string& alias_key = {});
  void attach_alias_locked(Lru::iterator entry, const std::string& alias_key);
  void drop_alias_locked(const std::string* alias_key);
  void publish_gauges_locked();

  std::size_t capacity_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* alias_hits_ = nullptr;
  obs::Counter* alias_misses_ = nullptr;
  mutable std::mutex mutex_;
  Lru lru_;  // front = hottest
  std::map<std::string, Lru::iterator> index_;
  std::unordered_map<std::string, Lru::iterator> alias_index_;
  std::uint64_t builder_bytes_ = 0;
  std::uint64_t mmap_bytes_ = 0;
  std::uint64_t alias_bytes_ = 0;
};

}  // namespace mcr::svc

#endif  // MCR_SVC_GRAPH_REGISTRY_H
