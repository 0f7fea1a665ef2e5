#include "sim/engine.h"

#include <algorithm>

#include "common/contract.h"
#include "common/units.h"

namespace memdis::sim {

// ---- epoch clock ------------------------------------------------------------

EpochClock::EpochClock(const EngineConfig& cfg)
    : machine_(cfg.machine),
      link_model_(cfg.link_model),
      stall_weight_(cfg.stall_weight),
      loi_schedule_(cfg.loi_schedule) {
  const auto& topo = machine_.topology;
  links_.reserve(static_cast<std::size_t>(topo.num_tiers()));
  queues_.reserve(static_cast<std::size_t>(topo.num_tiers()));
  const bool queue_mode = link_model_ == memsim::LinkModelKind::kQueue;
  for (memsim::TierId t = 0; t < topo.num_tiers(); ++t) {
    if (topo.is_fabric(t)) {
      links_.emplace_back(memsim::LinkModel(topo.tier(t)));
      if (queue_mode) {
        queues_.emplace_back(memsim::QueueModel(topo.tier(t)));
      } else {
        queues_.emplace_back(std::nullopt);
      }
    } else {
      links_.emplace_back(std::nullopt);
      queues_.emplace_back(std::nullopt);
    }
  }
  set_background_loi(cfg.background_loi);
  for (std::size_t t = 0; t < cfg.background_loi_per_tier.size() && t < links_.size(); ++t) {
    if (links_[t]) links_[t]->set_background_loi(cfg.background_loi_per_tier[t]);
  }
  schedule(0);
}

void EpochClock::schedule(std::uint64_t epoch) {
  if (loi_schedule_.empty()) return;
  // A schedule entry beyond the topology would otherwise be silently
  // ignored — a run that "handled the burst" because the burst never
  // happened.
  expects(loi_schedule_.per_tier.size() <= links_.size(),
          "LoI schedule targets a tier beyond the topology");
  for (std::size_t t = 0; t < links_.size(); ++t) {
    const auto* wave = loi_schedule_.waveform(static_cast<memsim::TierId>(t));
    if (!wave) continue;
    expects(links_[t].has_value(), "LoI schedule targets a tier without a link");
    links_[t]->set_background_loi(wave->value_at(epoch));
  }
}

const memsim::LinkModel& EpochClock::link(memsim::TierId t) const {
  expects(t >= 0 && t < static_cast<int>(links_.size()), "tier id out of range");
  const auto& l = links_[static_cast<std::size_t>(t)];
  expects(l.has_value(), "tier has no fabric link");
  return *l;
}

const memsim::QueueModel& EpochClock::queue(memsim::TierId t) const {
  expects(t >= 0 && t < static_cast<int>(queues_.size()), "tier id out of range");
  const auto& q = queues_[static_cast<std::size_t>(t)];
  expects(q.has_value(), "tier has no link queue (kLoi model or local tier)");
  return *q;
}

double EpochClock::effective_loi(memsim::TierId t, memsim::TrafficClass cls) const {
  const double background = link(t).background_loi();
  if (link_model_ != memsim::LinkModelKind::kQueue) return background;
  const memsim::QueueModel& q = queue(t);
  return q.effective_loi(cls, background, q.cross_rate_gbps(cls));
}

void EpochClock::set_background_loi(double loi_percent) {
  for (auto& l : links_)
    if (l) l->set_background_loi(loi_percent);
}

void EpochClock::set_background_loi(memsim::TierId t, double loi_percent) {
  expects(t >= 0 && t < static_cast<int>(links_.size()), "tier id out of range");
  auto& l = links_[static_cast<std::size_t>(t)];
  expects(l.has_value(), "tier has no fabric link");
  l->set_background_loi(loi_percent);
}

void EpochClock::close(EpochRecord& rec) {
  const auto& m = machine_;
  const int n = m.num_tiers();
  const bool queue_mode = link_model_ == memsim::LinkModelKind::kQueue;
  using memsim::TrafficClass;
  const auto& tier_bytes = rec.tier_bytes;
  const auto& tier_demand = rec.tier_demand;
  const auto& migration_bytes = rec.migration_bytes;
  const auto link_at = [this](memsim::TierId t) -> const memsim::LinkModel& {
    return *links_[static_cast<std::size_t>(t)];
  };

  // Throughput-bound terms: the epoch is as long as its most-loaded lane —
  // compute, or any single tier's byte stream at that tier's effective
  // bandwidth (fabric tiers are additionally clipped by their link). Under
  // the queue model the demand stream's bandwidth share is further reduced
  // by the bulk class's *windowed* traffic estimate (prior epochs — this
  // epoch's own burst cannot shrink t_base without a circular dependency;
  // it feeds the latency pass below instead).
  const double t_flop = static_cast<double>(rec.flops) / (m.peak_gflops * 1e9);
  double t_base = t_flop;
  for (memsim::TierId t = 0; t < n; ++t) {
    const auto bytes = static_cast<double>(tier_bytes[static_cast<std::size_t>(t)]);
    const auto& spec = m.tier(t);
    double bw_link = spec.bandwidth_gbps;
    if (spec.is_fabric()) {
      bw_link = queue_mode
                    ? queues_[static_cast<std::size_t>(t)]->effective_data_bandwidth_gbps(
                          TrafficClass::kDemand, link_at(t).background_loi(),
                          queues_[static_cast<std::size_t>(t)]->cross_rate_gbps(
                              TrafficClass::kDemand))
                    : link_at(t).effective_data_bandwidth_gbps(0.0);
    }
    const double bw_eff =
        spec.is_fabric() ? std::min(bw_link, spec.bandwidth_gbps) : spec.bandwidth_gbps;
    t_base = std::max(t_base, bytes / gbps_to_bytes_per_sec(bw_eff));
  }

  // Latency-bound term: only *demand* misses stall the cores; each fabric
  // tier's own offered rate feeds its link queueing model (two-pass fixed
  // point per link). Under the queue model the demand class additionally
  // sees the bulk class's traffic — the windowed estimate plus the bulk
  // bytes charged into this very epoch (at rate bytes/t_base, the same
  // proxy the demand rate uses), so a migration burst inflates the demand
  // latency of the epoch it lands in, not just the following window.
  const double overlap = m.mlp * static_cast<double>(m.threads);
  double stall_sum = 0.0;
  std::vector<double> demand_mult(static_cast<std::size_t>(n), 1.0);
  std::vector<double> demand_infl(static_cast<std::size_t>(n), 1.0);
  for (memsim::TierId t = 0; t < n; ++t) {
    const auto& spec = m.tier(t);
    double lat_s;
    if (spec.is_fabric()) {
      const auto bytes = static_cast<double>(tier_bytes[static_cast<std::size_t>(t)]);
      const double est_rate_gbps =
          t_base > 0 ? bytes_per_sec_to_gbps(bytes / t_base) : 0.0;
      if (queue_mode) {
        const auto& q = *queues_[static_cast<std::size_t>(t)];
        const double cross_gbps = q.estimated_rate_gbps(
            TrafficClass::kBulk,
            static_cast<double>(migration_bytes[static_cast<std::size_t>(t)]), t_base);
        lat_s = ns_to_s(q.effective_latency_ns(TrafficClass::kDemand,
                                               link_at(t).background_loi(), est_rate_gbps,
                                               cross_gbps));
        demand_mult[static_cast<std::size_t>(t)] =
            q.latency_multiplier(TrafficClass::kDemand, link_at(t).background_loi(),
                                 est_rate_gbps, cross_gbps);
        // Same epoch, same demand load, bulk cross-traffic removed: the
        // denominator of the inflation trace.
        const double solo_mult = q.latency_multiplier(
            TrafficClass::kDemand, link_at(t).background_loi(), est_rate_gbps, 0.0);
        if (solo_mult > 0)
          demand_infl[static_cast<std::size_t>(t)] =
              demand_mult[static_cast<std::size_t>(t)] / solo_mult;
      } else {
        lat_s = ns_to_s(link_at(t).effective_latency_ns(est_rate_gbps));
        demand_mult[static_cast<std::size_t>(t)] =
            link_at(t).latency_multiplier(est_rate_gbps);
      }
    } else {
      lat_s = ns_to_s(spec.latency_ns);
    }
    stall_sum += static_cast<double>(tier_demand[static_cast<std::size_t>(t)]) * lat_s;
  }
  const double t_stall = stall_weight_ * stall_sum / overlap;
  const double duration = t_base + t_stall + rec.migration_s;

  // Link measurements: PCM-style measured traffic summed over links; the
  // utilization of the busiest link (what an operator would alarm on).
  // Under the queue model the gauges see the bulk bytes too — migration
  // traffic is real link traffic to an operator's counters.
  double traffic = 0.0;
  double util = 0.0;
  for (memsim::TierId t = 0; t < n; ++t) {
    if (!m.tier(t).is_fabric()) continue;
    double bytes = static_cast<double>(tier_bytes[static_cast<std::size_t>(t)]);
    if (queue_mode)
      bytes += static_cast<double>(migration_bytes[static_cast<std::size_t>(t)]);
    const double app_rate_gbps =
        duration > 0 ? bytes_per_sec_to_gbps(bytes / duration) : 0.0;
    traffic += link_at(t).measured_traffic_gbps(app_rate_gbps);
    util = std::max(util, link_at(t).offered_utilization(app_rate_gbps));
  }
  rec.start_s = elapsed_s_;
  rec.duration_s = duration;
  rec.link_traffic_gbps = traffic;
  rec.link_utilization = util;
  rec.link_loi.assign(static_cast<std::size_t>(n), 0.0);
  for (memsim::TierId t = 0; t < n; ++t)
    if (links_[static_cast<std::size_t>(t)])
      rec.link_loi[static_cast<std::size_t>(t)] = link_at(t).background_loi();
  rec.link_demand_mult = std::move(demand_mult);
  rec.link_demand_inflation = std::move(demand_infl);

  // Fold this epoch's per-class traffic into the windowed estimators, so
  // the next epoch prices against this one's history.
  if (queue_mode) {
    for (memsim::TierId t = 0; t < n; ++t) {
      auto& q = queues_[static_cast<std::size_t>(t)];
      if (!q) continue;
      q->observe(TrafficClass::kDemand,
                 static_cast<double>(tier_bytes[static_cast<std::size_t>(t)]), duration);
      q->observe(TrafficClass::kBulk,
                 static_cast<double>(migration_bytes[static_cast<std::size_t>(t)]),
                 duration);
    }
  }
  elapsed_s_ += duration;
  schedule(++closed_epochs_);
}

// ---- engine -----------------------------------------------------------------

Engine::Engine(const EngineConfig& cfg)
    : cfg_(cfg), memory_(cfg.machine), clock_(cfg), hierarchy_(cfg.hierarchy, memory_) {
  const auto& m = cfg_.machine;
  expects(m.cacheline_bytes > 0 && (m.cacheline_bytes & (m.cacheline_bytes - 1)) == 0,
          "cacheline size must be a power of two");
  expects(m.page_bytes > 0 && (m.page_bytes & (m.page_bytes - 1)) == 0,
          "page size must be a power of two");
  line_bytes_ = m.cacheline_bytes;
  line_mask_ = m.cacheline_bytes - 1;
  page_shift_ = log2_pow2(m.page_bytes);
  pending_migration_bytes_.assign(static_cast<std::size_t>(m.num_tiers()), 0);
}

const memsim::LinkModel& Engine::link() const {
  return link(cfg_.machine.topology.first_fabric());
}

const memsim::LinkModel& Engine::link(memsim::TierId t) const { return clock_.link(t); }

void Engine::set_background_loi(double loi_percent) { clock_.set_background_loi(loi_percent); }

void Engine::set_background_loi(memsim::TierId t, double loi_percent) {
  clock_.set_background_loi(t, loi_percent);
}

double Engine::background_loi(memsim::TierId t) const { return link(t).background_loi(); }

void Engine::charge_migration_seconds(double seconds) {
  expects(seconds >= 0.0, "migration time cannot be negative");
  pending_migration_s_ += seconds;
}

void Engine::charge_migration_bytes(memsim::TierId seg, std::uint64_t bytes) {
  (void)link(seg);  // contract: `seg` is a fabric tier
  pending_migration_bytes_[static_cast<std::size_t>(seg)] += bytes;
}

const memsim::QueueModel& Engine::queue(memsim::TierId t) const { return clock_.queue(t); }

double Engine::effective_loi(memsim::TierId t, memsim::TrafficClass cls) const {
  return clock_.effective_loi(t, cls);
}

memsim::VRange Engine::alloc(std::uint64_t bytes, memsim::MemPolicy policy, std::string name) {
  // The trace records the *caller's* policy: replay passes it back through
  // alloc(), where the replaying engine's own override applies — so one
  // trace serves every policy grid point.
  const memsim::MemPolicy caller_policy = trace_sink_ ? policy : memsim::MemPolicy{};
  // numactl-style override: default-policy allocations follow the system
  // policy override; explicit bindings keep their policy.
  if (policy.kind == memsim::PlacementKind::kFirstTouch && cfg_.default_policy_override) {
    policy = *cfg_.default_policy_override;
  }
  const memsim::VRange range = memory_.alloc(bytes, std::move(policy));
  alloc_index_.emplace(range.base, allocations_.size());
  allocations_.push_back(AllocationInfo{std::move(name), range, false});
  if (trace_sink_)
    trace_sink_->on_alloc(bytes, caller_policy, allocations_.back().name, range.base);
  return range;
}

void Engine::free(const memsim::VRange& range) {
  if (trace_sink_) trace_sink_->on_free(range.base);
  memory_.free(range);
  const auto it = alloc_index_.find(range.base);
  if (it != alloc_index_.end()) allocations_[it->second].freed = true;
}

// ---- bulk access streams ----------------------------------------------------

void Engine::lane_element_loop(std::uint64_t addr, std::uint64_t count, std::uint64_t stride,
                               std::uint32_t elem, RangeKind kind) {
  // access_span, not load()/store(): the public call already fired the
  // trace sink once; its decomposition must not record again.
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint64_t a = addr + k * stride;
    switch (kind) {
      case RangeKind::kLoad:
        access_span(a, elem, false);
        break;
      case RangeKind::kStore:
        access_span(a, elem, true);
        break;
      case RangeKind::kRmw:
        access_span(a, elem, false);
        access_span(a, elem, true);
        break;
      case RangeKind::kStoreLoad:
        access_span(a, elem, true);
        access_span(a, elem, false);
        break;
    }
  }
}

bool Engine::line_run_fast(std::uint64_t line_addr, std::uint64_t loads, std::uint64_t stores,
                           bool first_is_store, BulkAcc& acc) {
  const std::uint64_t r = loads + stores;
  // Accesses left before the epoch closes. If the boundary falls inside
  // (or exactly at the end of) this run, the caller replays it
  // access-by-access so close_epoch() fires at the identical access.
  const std::uint64_t room = cfg_.epoch_accesses - epoch_demand_accesses_;
  if (r >= room) return false;
  if (hierarchy_.try_l1_run(line_addr, stores != 0, r)) {
    // Pure L1-hit run: no page samples (sampling fires on non-L1 only).
    acc.loads += loads;
    acc.stores += stores;
    epoch_demand_accesses_ += r;
    return true;
  }
  // Leading access misses L1: the unavoidable full walk, identical to the
  // element-wise path (counters written directly, page sampler advanced).
  // The failed run probe already established the L1 miss.
  const auto res = hierarchy_.access_after_l1_miss(line_addr, first_is_store);
  if (res.level != cachesim::HitLevel::kL1 &&
      ++page_sample_counter_ >= cfg_.page_sample_period) {
    page_sample_counter_ = 0;
    bump_page_hist(line_addr >> page_shift_);
  }
  if (r > 1) {
    // The remaining r-1 accesses hit the line just filled into L1.
    const std::uint64_t tail_loads = loads - (first_is_store ? 0 : 1);
    const std::uint64_t tail_stores = stores - (first_is_store ? 1 : 0);
    hierarchy_.l1_touch_run(line_addr, tail_stores != 0, r - 1);
    acc.loads += tail_loads;
    acc.stores += tail_stores;
  }
  epoch_demand_accesses_ += r;  // stays below the epoch threshold: r < room
  return true;
}

void Engine::lane_access(std::uint64_t addr, std::uint64_t count, std::uint64_t stride,
                         std::uint32_t elem, RangeKind kind) {
  expects(count > 0, "bulk access of zero elements");
  expects(elem > 0, "bulk access with zero element size");
  expects(stride > 0, "bulk access with zero stride");
  // The fast path requires elements that never straddle a cacheline (the
  // element size divides the line, base and stride are element-aligned);
  // anything else decomposes to the reference loop — still exact.
  if (!cfg_.bulk_fast_path || line_bytes_ % elem != 0 || addr % elem != 0 ||
      stride % elem != 0) {
    lane_element_loop(addr, count, stride, elem, kind);
    return;
  }
  const bool first_is_store = kind == RangeKind::kStore || kind == RangeKind::kStoreLoad;
  const bool has_loads = kind != RangeKind::kStore;
  const bool has_stores = kind != RangeKind::kLoad;
  BulkAcc acc;
  std::uint64_t k = 0;
  while (k < count) {
    // The run of consecutive elements inside the current cacheline (one
    // element per line once the stride reaches the line size).
    const std::uint64_t a = addr + k * stride;
    const std::uint64_t line = a & ~line_mask_;
    const std::uint64_t n = std::min(count - k, (line + line_mask_ - a) / stride + 1);
    if (!line_run_fast(line, has_loads ? n : 0, has_stores ? n : 0, first_is_store, acc)) {
      // Epoch boundary inside the run: exact element-by-element replay.
      flush_bulk(acc);
      lane_element_loop(a, n, stride, elem, kind);
    }
    k += n;
  }
  flush_bulk(acc);
}

void Engine::range_access(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem,
                          RangeKind kind) {
  expects(elem > 0 && bytes % elem == 0, "range must hold whole elements");
  lane_access(addr, bytes / elem, elem, elem, kind);
}

void Engine::load_range(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem_bytes) {
  if (trace_sink_) trace_sink_->on_range(0, addr, bytes, elem_bytes);
  range_access(addr, bytes, elem_bytes, RangeKind::kLoad);
}
void Engine::store_range(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem_bytes) {
  if (trace_sink_) trace_sink_->on_range(1, addr, bytes, elem_bytes);
  range_access(addr, bytes, elem_bytes, RangeKind::kStore);
}
void Engine::rmw_range(std::uint64_t addr, std::uint64_t bytes, std::uint32_t elem_bytes) {
  if (trace_sink_) trace_sink_->on_range(2, addr, bytes, elem_bytes);
  range_access(addr, bytes, elem_bytes, RangeKind::kRmw);
}
void Engine::store_load_range(std::uint64_t addr, std::uint64_t bytes,
                              std::uint32_t elem_bytes) {
  if (trace_sink_) trace_sink_->on_range(3, addr, bytes, elem_bytes);
  range_access(addr, bytes, elem_bytes, RangeKind::kStoreLoad);
}

void Engine::load_strided(std::uint64_t addr, std::uint64_t count, std::uint64_t stride_bytes,
                          std::uint32_t elem_bytes) {
  if (trace_sink_) trace_sink_->on_strided(false, addr, count, stride_bytes, elem_bytes);
  lane_access(addr, count, stride_bytes, elem_bytes, RangeKind::kLoad);
}
void Engine::store_strided(std::uint64_t addr, std::uint64_t count, std::uint64_t stride_bytes,
                           std::uint32_t elem_bytes) {
  if (trace_sink_) trace_sink_->on_strided(true, addr, count, stride_bytes, elem_bytes);
  lane_access(addr, count, stride_bytes, elem_bytes, RangeKind::kStore);
}

void Engine::stream_access(const StreamLane* lanes, std::size_t num_lanes,
                           std::uint64_t count) {
  expects(count > 0, "bulk access of zero elements");
  for (std::size_t i = 0; i < num_lanes; ++i)
    expects(lanes[i].op == StreamLane::Op::kFlops ||
                (lanes[i].elem > 0 && lanes[i].stride > 0),
            "stream lane with zero element size or stride");
  const auto emit_iter = [&](std::uint64_t k) {
    for (std::size_t i = 0; i < num_lanes; ++i) {
      const StreamLane& ln = lanes[i];
      const std::uint64_t a = ln.base + k * ln.stride;
      switch (ln.op) {
        case StreamLane::Op::kLoad:
          access_span(a, ln.elem, false);
          break;
        case StreamLane::Op::kStore:
          access_span(a, ln.elem, true);
          break;
        case StreamLane::Op::kRmw:
          access_span(a, ln.elem, false);
          access_span(a, ln.elem, true);
          break;
        case StreamLane::Op::kFlops:
          pending_flops_ += ln.base;
          break;
      }
    }
  };
  constexpr std::size_t kMaxLanes = 16;
  bool fast = cfg_.bulk_fast_path && num_lanes <= kMaxLanes;
  for (std::size_t i = 0; fast && i < num_lanes; ++i) {
    const StreamLane& ln = lanes[i];
    if (ln.op == StreamLane::Op::kFlops) continue;  // no address constraints
    // Line-contained, element-aligned lanes only (same rule as the other
    // range entry points); anything else runs the reference emission.
    if (line_bytes_ % ln.elem != 0 || ln.base % ln.elem != 0 || ln.stride % ln.elem != 0)
      fast = false;
  }
  if (!fast) {
    for (std::uint64_t k = 0; k < count; ++k) emit_iter(k);
    return;
  }

  // Per-iteration access count and each lane's final-access position within
  // one iteration (an rmw lane's store is its last access). Flops lanes
  // perform no access and never touch the LRU clock — batching their flops
  // is exact because pending flops are only read at epoch close, and the
  // window never crosses one (total < room below).
  std::uint32_t pos[kMaxLanes];
  std::uint32_t accesses_per_iter = 0;
  for (std::size_t i = 0; i < num_lanes; ++i) {
    if (lanes[i].op == StreamLane::Op::kFlops) {
      pos[i] = 0;
      continue;
    }
    accesses_per_iter += lanes[i].op == StreamLane::Op::kRmw ? 2 : 1;
    pos[i] = accesses_per_iter;
  }

  std::uint64_t lane_line[kMaxLanes];
  std::size_t handle[kMaxLanes];
  // Lanes whose line changed this window, gathered so their probes resolve
  // in one batched pass over the L1 tag planes (the vectorized scans issue
  // back-to-back). Lanes with an unchanged line keep their handle: the
  // previous window ran the fast path, so no fill has moved anything.
  std::uint64_t probe_line[kMaxLanes];
  std::uint32_t probe_lane[kMaxLanes];
  std::size_t probe_handle[kMaxLanes];
  bool handles_valid = false;  // false → re-resolve every lane (post-fill)
  BulkAcc acc;
  std::uint64_t k = 0;
  while (k < count) {
    // Window: iterations every lane spends inside its current cacheline.
    std::uint64_t n = count - k;
    std::size_t num_probes = 0;
    for (std::size_t i = 0; i < num_lanes; ++i) {
      const StreamLane& ln = lanes[i];
      if (ln.op == StreamLane::Op::kFlops) continue;
      const std::uint64_t addr = ln.base + k * ln.stride;
      const std::uint64_t line = addr & ~line_mask_;
      const std::uint64_t in_line = (line + line_bytes_ - 1 - addr) / ln.stride + 1;
      n = std::min(n, in_line);
      if (!handles_valid || line != lane_line[i]) {
        lane_line[i] = line;
        probe_line[num_probes] = line;
        probe_lane[num_probes] = static_cast<std::uint32_t>(i);
        ++num_probes;
      }
    }
    // Only freshly probed lanes can miss: unchanged handles come from a
    // window that already ran the all-hit fast path.
    bool any_miss = false;
    if (num_probes > 0) {
      hierarchy_.l1_index_of_batch(probe_line, num_probes, probe_handle);
      for (std::size_t j = 0; j < num_probes; ++j) {
        handle[probe_lane[j]] = probe_handle[j];
        any_miss = any_miss || probe_handle[j] == cachesim::CacheHierarchy::l1_npos;
      }
    }
    const std::uint64_t total = n * accesses_per_iter;
    const std::uint64_t room = cfg_.epoch_accesses - epoch_demand_accesses_;
    if (any_miss || total >= room) {
      // A lane's line is not resident (the element-wise path performs the
      // fill) or the epoch boundary falls inside the window (the element-
      // wise path closes it at the precise access). One exact iteration,
      // then re-resolve: fills may have evicted or moved any lane's line.
      flush_bulk(acc);
      emit_iter(k);
      ++k;
      handles_valid = false;
      continue;
    }
    // Every access in the window is an L1 hit: apply each lane's net batch
    // effect. Applying in lane order makes the latest lane win on shared
    // lines, exactly like the element-wise sequence.
    if (accesses_per_iter > 0) {
      const std::uint64_t t_end = hierarchy_.l1_advance_tick(total);
      for (std::size_t i = 0; i < num_lanes; ++i) {
        const StreamLane::Op op = lanes[i].op;
        if (op == StreamLane::Op::kFlops) continue;
        hierarchy_.l1_touch_at(handle[i], op != StreamLane::Op::kLoad,
                               t_end - (accesses_per_iter - pos[i]));
        if (op != StreamLane::Op::kStore) acc.loads += n;
        if (op != StreamLane::Op::kLoad) acc.stores += n;
      }
    }
    for (std::size_t i = 0; i < num_lanes; ++i)
      if (lanes[i].op == StreamLane::Op::kFlops) pending_flops_ += n * lanes[i].base;
    epoch_demand_accesses_ += total;
    handles_valid = true;
    k += n;
  }
  flush_bulk(acc);
}

void Engine::stream_range(const StreamLane* lanes, std::size_t num_lanes,
                          std::uint64_t count) {
  expects(num_lanes > 0, "stream_range without lanes");
  expects(count > 0, "stream_range of zero iterations");
  if (trace_sink_) trace_sink_->on_stream(lanes, num_lanes, count);
  stream_access(lanes, num_lanes, count);
}

void Engine::load_pair_range(std::uint64_t a, std::uint32_t elem_a, std::uint64_t b,
                             std::uint32_t elem_b, std::uint64_t count) {
  if (trace_sink_) trace_sink_->on_pair(false, a, elem_a, b, elem_b, count);
  const StreamLane lanes[] = {{a, elem_a, elem_a, StreamLane::Op::kLoad},
                              {b, elem_b, elem_b, StreamLane::Op::kLoad}};
  stream_access(lanes, 2, count);
}
void Engine::store_pair_range(std::uint64_t a, std::uint32_t elem_a, std::uint64_t b,
                              std::uint32_t elem_b, std::uint64_t count) {
  if (trace_sink_) trace_sink_->on_pair(true, a, elem_a, b, elem_b, count);
  const StreamLane lanes[] = {{a, elem_a, elem_a, StreamLane::Op::kStore},
                              {b, elem_b, elem_b, StreamLane::Op::kStore}};
  stream_access(lanes, 2, count);
}

// ---- phases & epochs --------------------------------------------------------

void Engine::pf_start(std::string tag) {
  expects(current_phase_.empty(), "nested pf_start without pf_stop");
  if (trace_sink_) trace_sink_->on_phase(true, tag);
  close_epoch();
  current_phase_ = std::move(tag);
  phase_base_ = hierarchy_.counters();
  phase_flops_base_ = total_flops_ + pending_flops_;
  phase_time_base_ = clock_.elapsed_s();
  phase_epoch_base_ = epochs_.size();
}

void Engine::pf_stop() {
  expects(!current_phase_.empty(), "pf_stop without pf_start");
  if (trace_sink_) trace_sink_->on_phase(false, current_phase_);
  close_epoch();
  PhaseRecord rec;
  rec.tag = current_phase_;
  rec.time_s = clock_.elapsed_s() - phase_time_base_;
  rec.flops = total_flops_ - phase_flops_base_;
  rec.counters = hierarchy_.counters().delta_since(phase_base_);
  rec.epoch_begin = phase_epoch_base_;
  rec.epoch_end = epochs_.size();
  phases_.push_back(std::move(rec));
  current_phase_.clear();
}

void Engine::close_epoch() {
  const cachesim::HwCounters now = hierarchy_.counters();
  const cachesim::HwCounters d = now.delta_since(epoch_base_);
  const std::uint64_t flops_now = pending_flops_;
  if (d.accesses() == 0 && flops_now == 0 && pending_migration_s_ == 0.0) {
    epoch_demand_accesses_ = 0;
    return;  // nothing happened since the last close
  }

  // The functional half of the record: this epoch's per-tier byte/demand-
  // miss deltas and the migration charges. The clock fills in the timing.
  const int n = cfg_.machine.num_tiers();
  EpochRecord rec;
  rec.phase = current_phase_;
  rec.flops = flops_now;
  rec.tier_bytes.resize(static_cast<std::size_t>(n));
  rec.tier_demand.resize(static_cast<std::size_t>(n));
  for (memsim::TierId t = 0; t < n; ++t) {
    rec.tier_bytes[static_cast<std::size_t>(t)] = d.dram_bytes(t);
    rec.tier_demand[static_cast<std::size_t>(t)] = d.demand_dram[static_cast<std::size_t>(t)];
  }
  rec.l2_lines_in = d.l2_lines_in;
  // Migration transfer time charged by the planner since the last close
  // serializes with the epoch's demand traffic (move_pages stalls the
  // touching thread). Zero when no migration runtime is attached, keeping
  // two-tier golden artifacts bit-identical.
  rec.migration_s = pending_migration_s_;
  migration_s_total_ += pending_migration_s_;
  pending_migration_s_ = 0.0;
  rec.migration_bytes = pending_migration_bytes_;
  std::fill(pending_migration_bytes_.begin(), pending_migration_bytes_.end(), 0);
  const memsim::NumaSnapshot snap = memory_.snapshot();
  rec.resident_bytes = snap.resident_bytes;
  // Prices the epoch and steps the LoI schedule *before* the epoch callback
  // fires, so runtime services (the migration planner) price the upcoming
  // epoch against the link state it will actually run under.
  clock_.close(rec);
  epochs_.push_back(std::move(rec));

  total_flops_ += flops_now;
  peak_rss_ = std::max(peak_rss_, snap.total());
  pending_flops_ = 0;
  epoch_demand_accesses_ = 0;
  epoch_base_ = now;
  if (epoch_cb_) epoch_cb_(*this);
}

void Engine::finish() {
  expects(!finished_, "finish called twice");
  expects(current_phase_.empty(), "finish inside an open phase");
  close_epoch();
  hierarchy_.drain();
  // Writeback traffic from the drain is charged to a final epoch.
  close_epoch();
  finished_ = true;
}

}  // namespace memdis::sim
