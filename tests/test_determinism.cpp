// Determinism regression: scenario artifacts must be byte-identical across
// repeated in-process runs. This guards the engine's epoch-callback path
// (LoI schedule stepping + migration planning happen inside the callback)
// against hidden nondeterminism — iteration over unordered containers,
// uninitialized reads, cross-run state leaks in the runtime — that a single
// golden run cannot catch.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "core/epoch_profile.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"

namespace memdis {
namespace {

struct Artifacts {
  std::string csv;
  std::string json;
};

Artifacts artifacts_of(const core::SweepResult& result) {
  Artifacts out;
  std::ostringstream csv, json;
  result.write_csv(csv);
  result.write_json(json);
  out.csv = csv.str();
  out.json = json.str();
  return out;
}

Artifacts artifacts_of(const std::string& scenario_name, unsigned jobs,
                       const core::ExecOptions& exec = {}) {
  const auto* scenario = core::ScenarioRegistry::instance().find(scenario_name);
  EXPECT_NE(scenario, nullptr) << scenario_name;
  core::SweepOptions options;
  options.jobs = jobs;
  options.exec = exec;
  return artifacts_of(core::run_scenario(*scenario, options));
}

/// Full simulation with every other option as given.
core::ExecOptions full_simulation(core::ExecOptions exec = {}) {
  exec.reprice = false;
  return exec;
}

/// Runs one side of a comparison with repricing off and asserts that no
/// run in it was served from the process-wide profile cache. Otherwise a
/// profile captured earlier in the process could stand in for the run,
/// and the comparison would test nothing.
Artifacts simulated_artifacts_of(const std::string& scenario_name,
                                 const core::ExecOptions& exec) {
  EXPECT_FALSE(exec.reprice);
  const auto before = core::reprice_stats().reprices;
  Artifacts out = artifacts_of(scenario_name, 1, exec);
  EXPECT_EQ(core::reprice_stats().reprices, before) << scenario_name << " was repriced";
  return out;
}

/// The default-config fig06 run with repricing off: the reference every
/// fig06 comparison below checks its variant against. Simulated once per
/// process (each run is a full fig06 simulation, the suite's dominant
/// cost); every caller gets the same artifacts.
const Artifacts& fig06_reference() {
  static const Artifacts reference = simulated_artifacts_of("fig06", full_simulation());
  return reference;
}

/// The staged-migration scenario exercises the full epoch-callback stack:
/// per-scan re-pricing, budgets, demotion swaps, and charged transfer time.
TEST(Determinism, ExtStagedMigrationArtifactsAreReproducible) {
  const Artifacts first = artifacts_of("ext-staged-migration", 1);
  const Artifacts second = artifacts_of("ext-staged-migration", 1);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.csv.empty());
}

/// The transient-LoI scenario additionally steps waveforms every epoch and
/// runs the belief-vs-truth planner pair — the paths this PR added.
TEST(Determinism, ExtTransientLoiArtifactsAreReproducible) {
  const Artifacts first = artifacts_of("ext-transient-loi", 1);
  const Artifacts second = artifacts_of("ext-transient-loi", 1);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.json.empty());
}

/// Parallel execution must not change the artifacts either (the sweep
/// engine's contract, re-checked here for a callback-heavy scenario).
TEST(Determinism, TransientLoiParallelMatchesSerial) {
  const Artifacts serial = artifacts_of("ext-transient-loi", 1);
  const Artifacts parallel = artifacts_of("ext-transient-loi", 3);
  EXPECT_EQ(serial.csv, parallel.csv);
  EXPECT_EQ(serial.json, parallel.json);
}

// ---- bulk fast path vs element-wise reference -------------------------------
// The correctness gate for the range API: a whole scenario run on the
// batched fast path must produce byte-identical CSV/JSON artifacts to the
// same scenario with every range call decomposed into the element-wise
// loop it documents. fig06 covers all six workloads' ported streaming
// passes; ext-transient-loi additionally exercises the epoch-callback
// stack (migration planning + waveform stepping) against batched runs.
//
// Under sanitizers these double-scenario runs overshoot the ctest
// scenario timeout, so they skip there: the sanitized lane still covers
// the fast path through the unit suite and the other scenario tests,
// while the byte-compare gate runs in every non-sanitized lane.

#if defined(__SANITIZE_ADDRESS__)
#define MEMDIS_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MEMDIS_UNDER_ASAN 1
#endif
#endif

core::ExecOptions element_wise() {
  core::ExecOptions exec = full_simulation();
  exec.bulk_fast_path = false;
  return exec;
}

TEST(Determinism, Fig06RangeApiMatchesElementWise) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  const Artifacts& fast = fig06_reference();
  const Artifacts reference = simulated_artifacts_of("fig06", element_wise());
  EXPECT_EQ(fast.csv, reference.csv);
  EXPECT_EQ(fast.json, reference.json);
  EXPECT_FALSE(fast.csv.empty());
}

TEST(Determinism, TransientLoiRangeApiMatchesElementWise) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double scenario run exceeds the sanitized scenario timeout";
#endif
  const Artifacts fast = simulated_artifacts_of("ext-transient-loi", full_simulation());
  const Artifacts reference = simulated_artifacts_of("ext-transient-loi", element_wise());
  EXPECT_EQ(fast.csv, reference.csv);
  EXPECT_EQ(fast.json, reference.json);
}

// ---- SIMD probe vs forced scalar --------------------------------------------
// The correctness gate for the vectorized way scan (common/simd.h): a whole
// scenario run with the wide tag-compare/argmin probes must produce
// byte-identical artifacts to the same scenario with the runtime kill
// switch forcing the scalar loops. In a -DMEMDIS_SIMD=OFF build both runs
// take the scalar path and the test degenerates to the reproducibility
// check.

/// Scoped override of the probe kill switch: everything run inside the
/// scope uses the scalar way loops.
class ScopedScalarProbe {
 public:
  ScopedScalarProbe() : saved_(simd_enabled()) { set_simd_enabled(false); }
  ~ScopedScalarProbe() { set_simd_enabled(saved_); }
  ScopedScalarProbe(const ScopedScalarProbe&) = delete;
  ScopedScalarProbe& operator=(const ScopedScalarProbe&) = delete;

 private:
  bool saved_;
};

TEST(Determinism, Fig06SimdProbeMatchesForcedScalar) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  const Artifacts& wide = fig06_reference();
  Artifacts scalar;
  {
    ScopedScalarProbe forced;
    scalar = simulated_artifacts_of("fig06", full_simulation());
  }
  EXPECT_EQ(wide.csv, scalar.csv);
  EXPECT_EQ(wide.json, scalar.json);
  EXPECT_FALSE(wide.csv.empty());
}

// ---- queue model vs LoI closed form -----------------------------------------
// The compat half of `--link-model`: scenarios without bulk traffic carry
// zero cross-class rates, so running them under the queue model must
// reproduce the closed-form artifacts byte for byte (fig06 covers all six
// workloads with no migration runtime attached). Conversely, a scenario
// whose planner charges bulk migration traffic must see the queue model
// once the sweep's options ask for it — the option has to reach the
// engines its measure function builds directly.

core::ExecOptions queue_model(core::ExecOptions exec = {}) {
  exec.link_model = memsim::LinkModelKind::kQueue;
  return exec;
}

TEST(Determinism, Fig06QueueModelMatchesLoiModel) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  const Artifacts& loi = fig06_reference();
  const Artifacts queued = simulated_artifacts_of("fig06", full_simulation(queue_model()));
  EXPECT_EQ(loi.csv, queued.csv);
  EXPECT_EQ(loi.json, queued.json);
  EXPECT_FALSE(loi.csv.empty());
}

TEST(Determinism, TransientLoiLinkModelReachesScenarioEngines) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double scenario run exceeds the sanitized scenario timeout";
#endif
  const Artifacts loi = artifacts_of("ext-transient-loi", 1);
  const Artifacts queued = artifacts_of("ext-transient-loi", 1, queue_model());
  EXPECT_NE(loi.csv, queued.csv);
  EXPECT_FALSE(queued.csv.empty());
}

/// The new scenario itself must be reproducible — it layers the queue
/// estimators, self-deferral bookkeeping, and the inflation trace on top
/// of the epoch-callback stack the other determinism tests cover.
TEST(Determinism, ExtQueueContentionArtifactsAreReproducible) {
  const Artifacts first = artifacts_of("ext-queue-contention", 1);
  const Artifacts second = artifacts_of("ext-queue-contention", 2);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.csv.empty());
}

// ---- epoch-profile repricing vs full simulation -----------------------------
// The correctness gate for repricing (core/epoch_profile.h, on by
// default): a scenario run that captures one epoch profile per functional
// key and re-prices every other grid point from it must produce
// byte-identical artifacts to the all-full-simulation run. fig06's axes
// (app, scale, prefetch) are all functional, so it pins the other half of
// the contract: on a grid with no timing axis every point captures and
// nothing re-prices — repricing is a byte-exact no-op. Scenarios whose
// measure functions sweep an LoI axis (ext-cxl, fig10) exercise
// reprices > 0 in tests/test_reprice.cpp.

/// Clears the profile cache on entry and exit so the repriced run inside
/// captures from scratch and no capture leaks between tests.
class FreshProfileCache {
 public:
  FreshProfileCache() { core::clear_reprice_cache(); }
  ~FreshProfileCache() { core::clear_reprice_cache(); }
  FreshProfileCache(const FreshProfileCache&) = delete;
  FreshProfileCache& operator=(const FreshProfileCache&) = delete;
};

TEST(Determinism, Fig06RepriceMatchesFullSimulation) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  const Artifacts& full = fig06_reference();
  Artifacts repriced;
  {
    FreshProfileCache fresh;
    repriced = artifacts_of("fig06", 1);
    // Every fig06 axis is functional (the profiler's prefetch on/off pair
    // included), so each eligible run captures and none re-prices:
    // repricing must be a strict byte-exact no-op on such a grid.
    EXPECT_GT(core::reprice_stats().captures, 0u);
    EXPECT_EQ(core::reprice_stats().reprices, 0u);
  }
  EXPECT_EQ(full.csv, repriced.csv);
  EXPECT_EQ(full.json, repriced.json);
  EXPECT_FALSE(full.csv.empty());
}

/// Repricing composes with parallel execution: the two-wave schedule must
/// keep the sweep contract (rows land in grid slots, artifacts identical
/// for any jobs count).
TEST(Determinism, Fig06RepriceParallelMatchesSerial) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  FreshProfileCache fresh;
  const Artifacts serial = artifacts_of("fig06", 1);
  core::clear_reprice_cache();
  const Artifacts parallel = artifacts_of("fig06", 3);
  EXPECT_EQ(serial.csv, parallel.csv);
  EXPECT_EQ(serial.json, parallel.json);
}

/// Repricing under the queue link model must leave fig06's
/// zero-bulk-traffic collapse to the closed-form artifacts intact (with
/// the capture path engaged).
TEST(Determinism, Fig06RepriceUnderQueueModelMatchesLoiModel) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  const Artifacts& loi = fig06_reference();
  Artifacts repriced_queue;
  {
    FreshProfileCache fresh;
    repriced_queue = artifacts_of("fig06", 1, queue_model());
  }
  EXPECT_EQ(loi.csv, repriced_queue.csv);
  EXPECT_EQ(loi.json, repriced_queue.json);
}

/// A planner-heavy scenario (migration runtimes, epoch callbacks) never
/// reaches the repricer — repricing must be a strict no-op there.
TEST(Determinism, ExtStagedMigrationRepriceIsANoOp) {
  const Artifacts off = simulated_artifacts_of("ext-staged-migration", full_simulation());
  Artifacts on;
  {
    FreshProfileCache fresh;
    on = artifacts_of("ext-staged-migration", 1);
    EXPECT_EQ(core::reprice_stats().reprices, 0u);
    EXPECT_EQ(core::reprice_stats().captures, 0u);
  }
  EXPECT_EQ(off.csv, on.csv);
  EXPECT_EQ(off.json, on.json);
}

// ---- concurrent sweeps with different options -------------------------------
// Execution options travel by value, so two sweeps in one process can run
// at the same time on different paths: here the element-wise full
// simulation beside the default (bulk fast path, repriced). Both must
// write the same bytes.

TEST(Determinism, ConcurrentSweepsWithDifferentOptionsAgree) {
  core::SweepSpec spec;
  spec.apps = {workloads::App::kHPL};
  spec.ratios = {0.5};
  spec.lois = {0.0, 50.0};
  spec.seed_per_task = false;
  const core::MeasureFn measure = [](const core::SweepPoint& point) {
    const auto wl = point.make_workload();
    const auto out = core::run_workload(*wl, point.run_config());
    return std::vector<core::Metric>{
        {"elapsed_s", out.elapsed_s},
        {"remote_ratio", out.remote_access_ratio()},
        {"epochs", static_cast<double>(out.epochs.size())}};
  };
  FreshProfileCache fresh;
  core::SweepOptions reference;
  reference.exec = element_wise();
  core::SweepResult reference_result, default_result;
  std::thread a([&] { reference_result = core::run_sweep(spec, measure, reference); });
  std::thread b([&] { default_result = core::run_sweep(spec, measure, {}); });
  a.join();
  b.join();
  const Artifacts ref = artifacts_of(reference_result);
  const Artifacts def = artifacts_of(default_result);
  EXPECT_EQ(ref.csv, def.csv);
  EXPECT_EQ(ref.json, def.json);
  EXPECT_EQ(reference_result.rows.size(), 2u);
}

}  // namespace
}  // namespace memdis
