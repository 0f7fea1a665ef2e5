// Simulated hardware performance counters.
//
// Field names mirror the events the paper's profiler reads on Skylake-X
// (Sec. 3.1 and 4.2): OFFCORE_RESPONSE:L3_MISS split by LOCAL/REMOTE_DRAM,
// the L2 prefetcher events PF_L2_DATA_RD / PF_L2_RFO / USELESS_HWPF, and
// L2_LINES_IN. The profiler computes prefetch Accuracy/Coverage (Eq. 1–2)
// and the remote access ratio (Sec. 5.1) from exactly these counters.
//
// Per-tier events are fixed-size arrays indexed by TierId (kMaxTiers slots;
// tiers beyond the active topology stay zero) so counters remain cheap to
// copy for the engine's per-epoch deltas.
#pragma once

#include <array>
#include <cstdint>

#include "memsim/tier.h"

namespace memdis::cachesim {

struct HwCounters {
  // Core-side access mix.
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l3_hits = 0;

  // L2 fill and prefetch events.
  std::uint64_t l2_lines_in = 0;      ///< all lines filled into L2
  std::uint64_t pf_l2_data_rd = 0;    ///< prefetch fills triggered by loads
  std::uint64_t pf_l2_rfo = 0;        ///< prefetch fills triggered by stores
  std::uint64_t useless_hwpf = 0;     ///< prefetched lines evicted untouched
  std::uint64_t pf_hits = 0;          ///< demand hits on a prefetched line (first use)

  // Offcore responses: lines retrieved from DRAM (demand + prefetch).
  std::uint64_t offcore_l3_miss = 0;
  std::array<std::uint64_t, memsim::kMaxTiers> offcore_dram{};  ///< per-tier line fetches

  // Demand misses that had to wait for DRAM (not covered by a prefetch).
  std::array<std::uint64_t, memsim::kMaxTiers> demand_dram{};

  // Byte-level DRAM traffic per tier (reads + writebacks), for bandwidth
  // accounting and the link traffic measurement.
  std::array<std::uint64_t, memsim::kMaxTiers> dram_read_bytes{};
  std::array<std::uint64_t, memsim::kMaxTiers> dram_writeback_bytes{};

  [[nodiscard]] std::uint64_t accesses() const { return loads + stores; }
  [[nodiscard]] std::uint64_t prefetch_fills() const { return pf_l2_data_rd + pf_l2_rfo; }
  [[nodiscard]] std::uint64_t demand_dram_total() const {
    std::uint64_t sum = 0;
    for (const auto d : demand_dram) sum += d;
    return sum;
  }
  [[nodiscard]] std::uint64_t dram_bytes(memsim::TierId t) const {
    const auto i = static_cast<std::size_t>(t);
    return dram_read_bytes[i] + dram_writeback_bytes[i];
  }
  [[nodiscard]] std::uint64_t dram_bytes_total() const {
    std::uint64_t sum = 0;
    for (int t = 0; t < memsim::kMaxTiers; ++t) sum += dram_bytes(t);
    return sum;
  }
  /// DRAM bytes served by the node tier.
  [[nodiscard]] std::uint64_t node_dram_bytes() const { return dram_bytes(memsim::kNodeTier); }
  /// DRAM bytes served off the node — all fabric tiers combined (the
  /// "remote" side of the paper's two-tier R_access ratio).
  [[nodiscard]] std::uint64_t fabric_dram_bytes() const {
    return dram_bytes_total() - node_dram_bytes();
  }

  /// Counter-wise difference (this - earlier); used for per-epoch deltas.
  [[nodiscard]] HwCounters delta_since(const HwCounters& earlier) const;

  HwCounters& operator+=(const HwCounters& other);
};

}  // namespace memdis::cachesim
