#include "svc/graph_registry.h"

#include <algorithm>
#include <utility>

#include "graph/fingerprint.h"
#include "obs/metrics.h"

namespace mcr::svc {
namespace {

const std::string kBuilderBytesGauge =
    obs::labeled_name("mcr_graph_bytes", {{"backing", "builder"}});
const std::string kMmapBytesGauge =
    obs::labeled_name("mcr_graph_bytes", {{"backing", "mmap"}});
const std::string kAliasBytesGauge =
    obs::labeled_name("mcr_graph_bytes", {{"backing", "alias"}});

}  // namespace

GraphRegistry::GraphRegistry(std::size_t capacity, obs::MetricsRegistry* metrics)
    : capacity_(std::max<std::size_t>(capacity, 1)), metrics_(metrics) {
  if (metrics_ != nullptr) {
    alias_hits_ = &metrics_->counter("mcr_graph_alias_hits_total");
    alias_misses_ = &metrics_->counter("mcr_graph_alias_misses_total");
  }
}

std::string GraphRegistry::add(Graph&& g) {
  return add(std::move(g), std::string()).fingerprint;
}

GraphRegistry::Resident GraphRegistry::add(Graph&& g, const std::string& alias_key) {
  std::string fp = fingerprint_hex(g);
  std::lock_guard lock(mutex_);
  const Lru::iterator entry =
      insert_locked(fp, std::make_shared<const Graph>(std::move(g)), alias_key);
  return {entry->graph, std::move(fp)};
}

void GraphRegistry::add_shared(const std::string& fingerprint_hex,
                               std::shared_ptr<const Graph> g) {
  std::lock_guard lock(mutex_);
  insert_locked(fingerprint_hex, std::move(g));
}

GraphRegistry::Lru::iterator GraphRegistry::insert_locked(
    const std::string& fingerprint_hex, std::shared_ptr<const Graph> g,
    const std::string& alias_key) {
  if (const auto it = index_.find(fingerprint_hex); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    attach_alias_locked(it->second, alias_key);
    publish_gauges_locked();
    return it->second;
  }
  Entry entry;
  entry.fingerprint = fingerprint_hex;
  entry.bytes = g->resident_bytes();
  entry.external = g->is_external();
  entry.graph = std::move(g);
  (entry.external ? mmap_bytes_ : builder_bytes_) += entry.bytes;
  lru_.push_front(std::move(entry));
  index_[fingerprint_hex] = lru_.begin();
  attach_alias_locked(lru_.begin(), alias_key);
  if (metrics_ != nullptr) metrics_->counter("mcr_graph_loads_total").add(1);
  while (lru_.size() > capacity_) {
    Entry& victim = lru_.back();
    (victim.external ? mmap_bytes_ : builder_bytes_) -= victim.bytes;
    for (const std::string* key : victim.aliases) drop_alias_locked(key);
    index_.erase(victim.fingerprint);
    lru_.pop_back();
    if (metrics_ != nullptr) metrics_->counter("mcr_graph_evictions_total").add(1);
  }
  publish_gauges_locked();
  return lru_.begin();
}

void GraphRegistry::attach_alias_locked(Lru::iterator entry, const std::string& alias_key) {
  // A key already present names this same content (keys are injective).
  if (alias_key.empty() || alias_index_.contains(alias_key)) return;
  if (entry->aliases.size() == kMaxAliases) {
    drop_alias_locked(entry->aliases.front());
    entry->aliases.erase(entry->aliases.begin());
  }
  const auto slot = alias_index_.emplace(alias_key, entry).first;
  entry->aliases.push_back(&slot->first);
  alias_bytes_ += alias_key.size();
}

void GraphRegistry::drop_alias_locked(const std::string* alias_key) {
  alias_bytes_ -= alias_key->size();
  alias_index_.erase(alias_index_.find(*alias_key));
}

GraphRegistry::Resident GraphRegistry::find_alias(const std::string& alias_key) {
  std::lock_guard lock(mutex_);
  const auto it = alias_index_.find(alias_key);
  if (it == alias_index_.end()) {
    if (alias_misses_ != nullptr) alias_misses_->add(1);
    return {};
  }
  if (alias_hits_ != nullptr) alias_hits_->add(1);
  lru_.splice(lru_.begin(), lru_, it->second);
  return {it->second->graph, it->second->fingerprint};
}

void GraphRegistry::publish_gauges_locked() {
  if (metrics_ == nullptr) return;
  metrics_->gauge("mcr_graphs_resident").set(static_cast<std::int64_t>(lru_.size()));
  metrics_->gauge(kBuilderBytesGauge).set(static_cast<std::int64_t>(builder_bytes_));
  metrics_->gauge(kMmapBytesGauge).set(static_cast<std::int64_t>(mmap_bytes_));
  metrics_->gauge(kAliasBytesGauge).set(static_cast<std::int64_t>(alias_bytes_));
}

std::shared_ptr<const Graph> GraphRegistry::find(const std::string& fingerprint_hex) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(fingerprint_hex);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->graph;
}

std::size_t GraphRegistry::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

std::uint64_t GraphRegistry::builder_bytes() const {
  std::lock_guard lock(mutex_);
  return builder_bytes_;
}

std::uint64_t GraphRegistry::mmap_bytes() const {
  std::lock_guard lock(mutex_);
  return mmap_bytes_;
}

std::uint64_t GraphRegistry::alias_bytes() const {
  std::lock_guard lock(mutex_);
  return alias_bytes_;
}

}  // namespace mcr::svc
