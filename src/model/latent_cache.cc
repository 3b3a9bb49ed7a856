#include "model/latent_cache.h"

#include <functional>

#include "obs/metrics.h"

namespace taste::model {

namespace {

/// Registry handles for the cache's serving metrics, resolved once.
/// Counters aggregate across every LatentCache in the process; the bytes
/// gauge composes through signed Add deltas for the same reason.
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Gauge* bytes;
  obs::Gauge* entries;

  static CacheMetrics& Get() {
    static CacheMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      CacheMetrics x;
      x.hits = r.GetCounter("taste_cache_hits_total");
      x.misses = r.GetCounter("taste_cache_misses_total");
      x.evictions = r.GetCounter("taste_cache_evictions_total");
      x.bytes = r.GetGauge("taste_cache_bytes");
      x.entries = r.GetGauge("taste_cache_entries");
      return x;
    }();
    return m;
  }
};

/// Per-shard hit/miss counters, labeled taste_cache_shard_{hits,misses}_
/// total{shard="i"}. Shard counts are small (<= a few dozen), and caches
/// with the same shard count share handles, so the registry stays compact.
obs::Counter* ShardHits(size_t shard) {
  return obs::Registry::Global().GetCounter(obs::LabeledName(
      "taste_cache_shard_hits_total", "shard", std::to_string(shard)));
}
obs::Counter* ShardMisses(size_t shard) {
  return obs::Registry::Global().GetCounter(obs::LabeledName(
      "taste_cache_shard_misses_total", "shard", std::to_string(shard)));
}

}  // namespace

LatentCache::LatentCache(size_t capacity, int shards) {
  TASTE_CHECK(capacity > 0);
  TASTE_CHECK(shards >= 1);
  // Total budget split evenly, rounding up so N shards never hold less than
  // the requested total would allow for skewed key distributions.
  shard_capacity_ = (capacity + static_cast<size_t>(shards) - 1) /
                    static_cast<size_t>(shards);
  if (shard_capacity_ == 0) shard_capacity_ = 1;
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->hits_counter = ShardHits(static_cast<size_t>(i));
    shard->misses_counter = ShardMisses(static_cast<size_t>(i));
    shards_.push_back(std::move(shard));
  }
  CacheMetrics::Get();  // register the cache metric families eagerly
}

LatentCache::~LatentCache() {
  // Return this cache's contribution so the process-wide gauges don't
  // accumulate bytes from dead caches.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    AddBytes(*shard, -shard->approx_bytes);
    AddEntries(-static_cast<double>(shard->lru.size()));
  }
}

size_t LatentCache::ShardIndexFor(const std::string& key) const {
  if (shards_.size() == 1) return 0;
  return std::hash<std::string>{}(key) % shards_.size();
}

int64_t LatentCache::EntryBytes(const CachedMetadata& value) {
  int64_t bytes = 0;
  auto add = [&bytes](const tensor::Tensor& t) {
    if (t.defined()) bytes += t.numel() * static_cast<int64_t>(sizeof(float));
  };
  for (const auto& latent : value.encoding.layer_latents) add(latent);
  add(value.encoding.anchor_states);
  add(value.encoding.logits);
  return bytes;
}

void LatentCache::AddBytes(Shard& shard, int64_t delta) {
  shard.approx_bytes += delta;
  if (obs::MetricsEnabled()) {
    CacheMetrics::Get().bytes->Add(static_cast<double>(delta));
  }
}

void LatentCache::AddEntries(double delta) {
  if (delta != 0.0 && obs::MetricsEnabled()) {
    CacheMetrics::Get().entries->Add(delta);
  }
}

void LatentCache::Put(const std::string& key, CachedMetadata value) {
  const int64_t new_bytes = EntryBytes(value);
  Shard& shard = *shards_[ShardIndexFor(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    AddBytes(shard, -EntryBytes(it->second->second));
    AddEntries(-1.0);
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.index[key] = shard.lru.begin();
  AddBytes(shard, new_bytes);
  AddEntries(1.0);
  while (shard.lru.size() > shard_capacity_) {
    AddBytes(shard, -EntryBytes(shard.lru.back().second));
    AddEntries(-1.0);
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.stats.evictions;
    if (obs::MetricsEnabled()) CacheMetrics::Get().evictions->Inc();
  }
}

std::optional<CachedMetadata> LatentCache::Get(const std::string& key) {
  Shard& shard = *shards_[ShardIndexFor(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    if (obs::MetricsEnabled()) {
      CacheMetrics::Get().misses->Inc();
      shard.misses_counter->Inc();
    }
    return std::nullopt;
  }
  ++shard.stats.hits;
  if (obs::MetricsEnabled()) {
    CacheMetrics::Get().hits->Inc();
    shard.hits_counter->Inc();
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void LatentCache::Clear() {
  // Lock every shard before dropping anything so Clear is atomic with
  // respect to concurrent Get/Put: no reader sees a partially cleared
  // cache. Index order makes concurrent Clears deadlock-free.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);
  for (auto& shard : shards_) {
    AddBytes(*shard, -shard->approx_bytes);
    AddEntries(-static_cast<double>(shard->lru.size()));
    shard->lru.clear();
    shard->index.clear();
  }
}

size_t LatentCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

LatentCache::Stats LatentCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
  }
  return total;
}

int64_t LatentCache::ApproxBytes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->approx_bytes;
  }
  return total;
}

}  // namespace taste::model
