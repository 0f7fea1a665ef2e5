#include "core/epoch_profile.h"

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/artifact_format.h"
#include "common/contract.h"

namespace memdis::core {

namespace {

std::atomic<std::uint64_t> g_captures{0};
std::atomic<std::uint64_t> g_reprices{0};

std::mutex g_cache_mutex;
std::unordered_map<std::string, std::shared_ptr<const EpochProfile>>& cache() {
  static std::unordered_map<std::string, std::shared_ptr<const EpochProfile>> c;
  return c;
}

}  // namespace

RepriceStats reprice_stats() {
  return {g_captures.load(std::memory_order_relaxed),
          g_reprices.load(std::memory_order_relaxed)};
}

void clear_reprice_cache() {
  const std::lock_guard<std::mutex> lock(g_cache_mutex);
  cache().clear();
  g_captures.store(0, std::memory_order_relaxed);
  g_reprices.store(0, std::memory_order_relaxed);
}

std::size_t reprice_cache_size() {
  const std::lock_guard<std::mutex> lock(g_cache_mutex);
  return cache().size();
}

std::string functional_key(const std::string& workload_id,
                           const memsim::MachineConfig& m,
                           const cachesim::HierarchyConfig& h, bool prefetch_enabled) {
  std::string key = workload_id;
  key += "|machine:";
  key += format_double(m.peak_gflops);
  key += ',';
  key += std::to_string(m.threads);
  key += ',';
  key += format_double(m.mlp);
  key += ',';
  key += std::to_string(m.page_bytes);
  key += ',';
  key += std::to_string(m.cacheline_bytes);
  // Every tier/link field is keyed, conservatively including pure pricing
  // parameters: the fabric *shape* is functional (capacities steer spill
  // and placement), and over-keying can only cost a duplicate capture,
  // never a wrong reuse.
  for (memsim::TierId t = 0; t < m.num_tiers(); ++t) {
    const auto& spec = m.tier(t);
    key += "|tier:";
    key += spec.name;
    key += ',';
    key += std::to_string(spec.capacity_bytes);
    key += ',';
    key += format_double(spec.bandwidth_gbps);
    key += ',';
    key += format_double(spec.latency_ns);
    key += ',';
    key += std::to_string(spec.upstream);
    if (spec.link) {
      const auto& l = *spec.link;
      key += ",link:";
      key += format_double(l.traffic_capacity_gbps);
      key += ',';
      key += format_double(l.protocol_overhead);
      key += ',';
      key += format_double(l.interference_share);
      key += ',';
      key += format_double(l.queue_weight);
      key += ',';
      key += format_double(l.overload_slope);
      key += ',';
      key += format_double(l.max_latency_multiplier);
      key += ',';
      key += std::to_string(l.queue_window_epochs);
    }
  }
  const auto cache_cfg = [&key](const char* tag, const cachesim::CacheConfig& c) {
    key += tag;
    key += std::to_string(c.size_bytes);
    key += ',';
    key += std::to_string(c.ways);
    key += ',';
    key += std::to_string(c.line_bytes);
  };
  cache_cfg("|l1:", h.l1);
  cache_cfg("|l2:", h.l2);
  cache_cfg("|l3:", h.l3);
  const auto& p = h.prefetcher;
  key += "|pf:";
  key += std::to_string(p.enabled ? 1 : 0);
  key += ',';
  key += std::to_string(p.num_streams);
  key += ',';
  key += std::to_string(p.max_degree);
  key += ',';
  key += std::to_string(p.train_threshold);
  key += ',';
  key += std::to_string(p.page_bytes);
  key += ',';
  key += std::to_string(p.line_bytes);
  key += ',';
  key += format_double(p.throttle_low);
  key += ',';
  key += format_double(p.throttle_high);
  key += "|pebs:";
  key += std::to_string(h.pebs_period);
  key += prefetch_enabled ? "|prefetch:on" : "|prefetch:off";
  return key;
}

std::shared_ptr<const EpochProfile> find_epoch_profile(const std::string& key) {
  const std::lock_guard<std::mutex> lock(g_cache_mutex);
  const auto it = cache().find(key);
  return it == cache().end() ? nullptr : it->second;
}

void store_epoch_profile(const std::string& key, EpochProfile profile) {
  auto holder = std::make_shared<const EpochProfile>(std::move(profile));
  const std::lock_guard<std::mutex> lock(g_cache_mutex);
  // Keep the first capture on a race: both racers ran the same full
  // simulation, so the profiles are interchangeable.
  cache().emplace(key, std::move(holder));
  g_captures.fetch_add(1, std::memory_order_relaxed);
}

RunOutput reprice(const EpochProfile& profile, const sim::EngineConfig& cfg) {
  RunOutput out = profile.output;  // functional fields carry over verbatim

  // Drive a fresh clock over the captured epochs. elapsed_after[k] is the
  // clock's elapsed time after k closed epochs — the engine's own running
  // sum, so phase times (differences of two prefix sums) reconstruct
  // bit-exactly below.
  sim::EpochClock clock(cfg);
  std::vector<double> elapsed_after;
  elapsed_after.reserve(out.epochs.size() + 1);
  elapsed_after.push_back(0.0);
  for (sim::EpochRecord& rec : out.epochs) {
    clock.close(rec);
    elapsed_after.push_back(clock.elapsed_s());
  }
  out.elapsed_s = clock.elapsed_s();
  for (auto& phase : out.phases) {
    expects(phase.epoch_begin <= phase.epoch_end &&
                phase.epoch_end < elapsed_after.size(),
            "phase epoch span out of range for the captured profile");
    phase.time_s = elapsed_after[phase.epoch_end] - elapsed_after[phase.epoch_begin];
  }
  g_reprices.fetch_add(1, std::memory_order_relaxed);
  return out;
}

}  // namespace memdis::core
