// Epoch-profile memoization: the functional/timing split that re-prices a
// sweep's interference axes in O(epochs) instead of O(accesses).
//
// Every RunConfig factors into two halves:
//
//   functional — everything that determines the access stream and cache-
//     state evolution: the workload (app, scale, seed, variant — pinned by
//     Workload::functional_id), the shaped machine (capacity split/ratio,
//     fabric topology), the cache hierarchy, and the prefetcher switch.
//   timing — everything the links charge but that cannot feed back into
//     the stream: background LoI (scalar and per-tier), LoI schedules,
//     and the link model (LinkModel closed form vs. QueueModel).
//
// The separation is real because epoch boundaries close on *demand access
// counts* (plus phase markers and finish), never on simulated time, and —
// absent a migration runtime or epoch callback, which only scenario code
// wires up below this layer — nothing reads a duration back into a
// placement or cache decision. So one full simulation per functional key
// captures per-epoch counter deltas (an EpochProfile), and every other
// grid point sharing the key is *re-priced*: a sim::EpochClock — the very
// object the engine closes its epochs through — is built from the run's
// own engine config and driven over the profile's epoch records. Links,
// queue windows and the LoI schedule therefore evolve exactly as in a full
// simulation, and re-priced artifacts are byte-identical to it for every
// eligible point — enforced by the determinism suite and the golden gate.
// See docs/REPRICE.md.
//
// Repricing is on by default. A run opts in through core::run_workload
// with RunConfig::exec.reprice set and a workload that publishes a
// functional id. Migration runtimes and epoch callbacks never reach
// run_workload (scenario code builds those engines directly), so
// ineligible points fall back to full simulation silently and correctly.
#pragma once

#include <memory>
#include <string>

#include "core/experiment.h"

namespace memdis::core {

/// One full simulation's capture for a functional key. The output's
/// functional content (counters, per-epoch deltas, residency, host
/// numerics) is valid for *any* timing config sharing the key; its timing
/// content is whatever the capture run happened to price and is recomputed
/// by reprice().
struct EpochProfile {
  RunOutput output;  ///< captured full-simulation output
};

/// Counters since the last clear_reprice_cache(): how many runs captured a
/// profile vs. were re-priced from one. Bench/test instrumentation.
struct RepriceStats {
  std::uint64_t captures = 0;
  std::uint64_t reprices = 0;
};
[[nodiscard]] RepriceStats reprice_stats();

/// Drops every cached profile and resets the stats. Tests and benches call
/// this around measurements so process-global state cannot leak between
/// them (profiles are keyed completely, so leaking is a memory concern,
/// never a correctness one).
void clear_reprice_cache();
[[nodiscard]] std::size_t reprice_cache_size();

/// Serializes the functional half of a run into the cache key: the
/// workload's functional id plus every stream-shaping field of the shaped
/// machine, the cache hierarchy, and the prefetcher switch. Doubles are
/// rendered with format_double (exact round-trip), so distinct configs
/// cannot collide.
[[nodiscard]] std::string functional_key(const std::string& workload_id,
                                         const memsim::MachineConfig& shaped_machine,
                                         const cachesim::HierarchyConfig& hierarchy,
                                         bool prefetch_enabled);

/// Cache lookup/insert. store keeps the first profile for a key (captures
/// race benignly: both ran the same full simulation).
[[nodiscard]] std::shared_ptr<const EpochProfile> find_epoch_profile(const std::string& key);
void store_epoch_profile(const std::string& key, EpochProfile profile);

/// Re-prices a captured profile under the timing half of `cfg` — the run's
/// own engine config, whose machine shares the profile's functional key —
/// by driving a fresh sim::EpochClock over the profile's epoch records,
/// then reconstructs phase times from the clock's running sums. O(epochs);
/// bit-identical to a full simulation of the same functional+timing config.
[[nodiscard]] RunOutput reprice(const EpochProfile& profile, const sim::EngineConfig& cfg);

}  // namespace memdis::core
