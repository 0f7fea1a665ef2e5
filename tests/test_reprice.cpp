// Epoch-profile repricing (core/epoch_profile.h): equivalence and fallback
// correctness.
//
// The contract under test is byte-identity: with repricing on (the
// default), every eligible grid point must produce artifacts bit-identical
// to the full simulation it replaces, and every ineligible point
// (migration runtime attached, epoch callback installed, workload without
// a functional id) must fall back to full simulation silently — so a
// sweep mixing both kinds writes byte-identical CSV/JSON either way.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/epoch_profile.h"
#include "core/experiment.h"
#include "core/migration.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"
#include "memsim/loi_schedule.h"
#include "sim/engine.h"
#include "workloads/lbench.h"

namespace memdis::core {
namespace {

// Clears the profile cache on entry and exit, so the runs inside capture
// from scratch and no capture leaks between tests.
class FreshProfileCache {
 public:
  FreshProfileCache() { clear_reprice_cache(); }
  ~FreshProfileCache() { clear_reprice_cache(); }
  FreshProfileCache(const FreshProfileCache&) = delete;
  FreshProfileCache& operator=(const FreshProfileCache&) = delete;
};

// The full-simulation reference for `rc`: repricing off, and asserted not
// to have been served from the shared profile cache (a profile captured
// earlier in the process would otherwise stand in for the reference).
RunOutput simulate(workloads::Workload& wl, RunConfig rc) {
  rc.exec.reprice = false;
  const auto before = reprice_stats().reprices;
  RunOutput out = run_workload(wl, rc);
  EXPECT_EQ(reprice_stats().reprices, before);
  return out;
}

bool bits_equal(double a, double b) {
  std::uint64_t ab = 0, bb = 0;
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

// Lbench sized so one run closes a handful of epochs quickly.
workloads::LbenchParams small_lbench(std::uint64_t seed) {
  workloads::LbenchParams lp;
  lp.elements = 1 << 16;
  lp.nflop = 1;
  lp.sweeps = 4;
  lp.on_pool = true;
  lp.seed = seed;
  return lp;
}

// Pass-through wrapper that deliberately keeps the base class's empty
// functional_id(): the in-run_workload opt-out path.
class AnonymousLbench final : public workloads::Workload {
 public:
  explicit AnonymousLbench(const workloads::LbenchParams& p) : inner_(p) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return inner_.footprint_bytes();
  }
  workloads::WorkloadResult run(sim::Engine& eng) override { return inner_.run(eng); }

 private:
  workloads::Lbench inner_;
};

// Asserts bit-identity of everything the repricer recomputes (and of the
// functional content it must not touch).
void expect_outputs_identical(const RunOutput& a, const RunOutput& b) {
  EXPECT_TRUE(bits_equal(a.elapsed_s, b.elapsed_s));
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.counters.loads, b.counters.loads);
  EXPECT_EQ(a.counters.offcore_l3_miss, b.counters.offcore_l3_miss);
  EXPECT_EQ(a.resident_bytes, b.resident_bytes);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const auto& ea = a.epochs[i];
    const auto& eb = b.epochs[i];
    EXPECT_TRUE(bits_equal(ea.start_s, eb.start_s)) << "epoch " << i;
    EXPECT_TRUE(bits_equal(ea.duration_s, eb.duration_s)) << "epoch " << i;
    EXPECT_TRUE(bits_equal(ea.link_traffic_gbps, eb.link_traffic_gbps)) << "epoch " << i;
    EXPECT_TRUE(bits_equal(ea.link_utilization, eb.link_utilization)) << "epoch " << i;
    EXPECT_EQ(ea.tier_bytes, eb.tier_bytes) << "epoch " << i;
    ASSERT_EQ(ea.link_loi.size(), eb.link_loi.size());
    for (std::size_t t = 0; t < ea.link_loi.size(); ++t) {
      EXPECT_TRUE(bits_equal(ea.link_loi[t], eb.link_loi[t])) << "epoch " << i;
      EXPECT_TRUE(bits_equal(ea.link_demand_mult[t], eb.link_demand_mult[t]))
          << "epoch " << i;
      EXPECT_TRUE(bits_equal(ea.link_demand_inflation[t], eb.link_demand_inflation[t]))
          << "epoch " << i;
    }
  }
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].tag, b.phases[i].tag);
    EXPECT_TRUE(bits_equal(a.phases[i].time_s, b.phases[i].time_s)) << a.phases[i].tag;
    EXPECT_EQ(a.phases[i].epoch_begin, b.phases[i].epoch_begin);
    EXPECT_EQ(a.phases[i].epoch_end, b.phases[i].epoch_end);
  }
}

RunConfig timing_point(double loi) {
  RunConfig rc;
  rc.background_loi = loi;
  rc.remote_capacity_ratio = 0.5;
  return rc;
}

TEST(Reprice, RunWorkloadIsBitIdenticalAcrossTheLoiAxis) {
  const std::vector<double> lois = {0.0, 10.0, 25.0, 50.0};
  // Reference: full simulation for every point.
  std::vector<RunOutput> live;
  for (const double loi : lois) {
    workloads::Lbench wl(small_lbench(7));
    live.push_back(simulate(wl, timing_point(loi)));
  }
  // Repriced: the first point captures, the rest fold the cost model over
  // its epoch profile.
  const FreshProfileCache fresh;
  for (std::size_t i = 0; i < lois.size(); ++i) {
    workloads::Lbench wl(small_lbench(7));
    const RunOutput out = run_workload(wl, timing_point(lois[i]));
    expect_outputs_identical(live[i], out);
  }
  const RepriceStats stats = reprice_stats();
  EXPECT_EQ(stats.captures, 1u);
  EXPECT_EQ(stats.reprices, lois.size() - 1);
  EXPECT_EQ(reprice_cache_size(), 1u);
}

TEST(Reprice, LoiScheduleAndPerTierOverridesRepriceBitExactly) {
  // A square-wave schedule on the pool link plus an asymmetric static
  // override: the repricer must step the schedule epoch-for-epoch and
  // apply the per-tier vector exactly as the engine constructor does —
  // under each link model, and when the capture ran under the closed form
  // but the re-priced point runs the queue model (the link model is timing,
  // so both share one functional key).
  using memsim::LinkModelKind;
  const auto make_config = [](double loi, LinkModelKind model) {
    RunConfig rc = timing_point(loi);
    rc.exec.link_model = model;
    rc.background_loi_per_tier = {0.0, loi};
    const memsim::TierId pool = rc.machine.topology.first_fabric();
    rc.loi_schedule.set(pool, memsim::LoiWaveform::square(2, 0.5, 40.0, loi));
    return rc;
  };
  struct Models {
    LinkModelKind capture;
    LinkModelKind reprice;
  };
  for (const Models models : {Models{LinkModelKind::kLoi, LinkModelKind::kLoi},
                              Models{LinkModelKind::kQueue, LinkModelKind::kQueue},
                              Models{LinkModelKind::kLoi, LinkModelKind::kQueue}}) {
    SCOPED_TRACE(testing::Message()
                 << "capture " << static_cast<int>(models.capture) << ", reprice "
                 << static_cast<int>(models.reprice));
    workloads::Lbench live_a(small_lbench(11));
    const RunOutput live0 = simulate(live_a, make_config(0.0, models.capture));
    workloads::Lbench live_b(small_lbench(11));
    const RunOutput live25 = simulate(live_b, make_config(25.0, models.reprice));
    const FreshProfileCache fresh;
    workloads::Lbench a(small_lbench(11));
    expect_outputs_identical(live0, run_workload(a, make_config(0.0, models.capture)));
    workloads::Lbench b(small_lbench(11));
    expect_outputs_identical(live25, run_workload(b, make_config(25.0, models.reprice)));
    EXPECT_EQ(reprice_stats().captures, 1u);
    EXPECT_EQ(reprice_stats().reprices, 1u);
  }
}

TEST(Reprice, QueueModelRepriceReplaysObservesBitExactly) {
  // Under the two-class queue model the windowed estimators carry history
  // across epochs; the repricer replays the same observe sequence, so the
  // results stay bit-identical — including at zero bulk, where the queue
  // model collapses to the closed form.
  const auto make_config = [](double loi) {
    RunConfig rc = timing_point(loi);
    rc.exec.link_model = memsim::LinkModelKind::kQueue;
    return rc;
  };
  workloads::Lbench live_a(small_lbench(13));
  const RunOutput live0 = simulate(live_a, make_config(0.0));
  workloads::Lbench live_b(small_lbench(13));
  const RunOutput live25 = simulate(live_b, make_config(25.0));
  const FreshProfileCache fresh;
  workloads::Lbench a(small_lbench(13));
  expect_outputs_identical(live0, run_workload(a, make_config(0.0)));
  workloads::Lbench b(small_lbench(13));
  expect_outputs_identical(live25, run_workload(b, make_config(25.0)));
  EXPECT_EQ(reprice_stats().reprices, 1u);
}

TEST(Reprice, WorkloadWithoutFunctionalIdFallsBackToFullSimulation) {
  const FreshProfileCache fresh;
  AnonymousLbench wl(small_lbench(17));
  const RunOutput out = run_workload(wl, timing_point(25.0));
  EXPECT_GT(out.elapsed_s, 0.0);
  const RepriceStats stats = reprice_stats();
  EXPECT_EQ(stats.captures, 0u);
  EXPECT_EQ(stats.reprices, 0u);
  EXPECT_EQ(reprice_cache_size(), 0u);
}

// ---- the mixed-grid sweep (the ISSUE's fallback-correctness check) ----------

// Measure dispatching on the variant axis:
//   plain    — run_workload, eligible (captures/re-prices over the LoI axis)
//   schedule — run_workload with a square-wave LoI schedule, still eligible
//   migrate  — direct Engine + MigrationRuntime + epoch callback: ineligible
//              by construction (never passes through run_workload)
//   anon     — run_workload with an id-less workload: in-code fallback
std::vector<Metric> mixed_measure(const SweepPoint& point) {
  if (point.variant == "migrate") {
    workloads::Lbench wl(small_lbench(point.seed));
    sim::EngineConfig cfg;
    cfg.machine = machine_with_spill(machine_for_fabric(point.fabric), 0.5,
                                     wl.footprint_bytes());
    cfg.background_loi = point.loi;
    cfg.epoch_accesses = 50'000;
    const memsim::TierId pool = cfg.machine.topology.first_fabric();
    cfg.loi_schedule.set(pool, memsim::LoiWaveform::square(4, 0.5, 30.0, point.loi));
    sim::Engine eng(cfg);
    MigrationConfig mcfg;
    mcfg.period_epochs = 1;
    mcfg.max_pages_per_scan = 16;
    mcfg.link_budget_pages = 2;
    MigrationRuntime runtime(mcfg);
    runtime.attach(eng);
    // An epoch callback reading durations back out of the timeline — the
    // timing-feedback shape that makes a run ineligible for repricing.
    double duration_feedback = 0.0;
    eng.set_epoch_callback([&](sim::Engine& e) {
      if (!e.epochs().empty()) duration_feedback += e.epochs().back().duration_s;
    });
    (void)wl.run(eng);
    eng.finish();
    return {{"elapsed_s", eng.elapsed_seconds()},
            {"epochs", static_cast<double>(eng.epochs().size())},
            {"promoted", static_cast<double>(runtime.pages_promoted())},
            {"feedback_s", duration_feedback}};
  }

  RunConfig rc = point.run_config();
  if (point.variant == "schedule") {
    const memsim::TierId pool = rc.machine.topology.first_fabric();
    rc.loi_schedule.set(pool, memsim::LoiWaveform::square(2, 0.5, 40.0, point.loi));
  }
  RunOutput out;
  if (point.variant == "anon") {
    AnonymousLbench wl(small_lbench(point.seed));
    out = run_workload(wl, rc);
  } else {
    workloads::Lbench wl(small_lbench(point.seed));
    out = run_workload(wl, rc);
  }
  double traffic_sum = 0.0, mult_sum = 0.0, phase_sum = 0.0;
  for (const auto& e : out.epochs) {
    traffic_sum += e.link_traffic_gbps;
    for (const double m : e.link_demand_mult) mult_sum += m;
  }
  for (const auto& p : out.phases) phase_sum += p.time_s;
  return {{"elapsed_s", out.elapsed_s},
          {"epochs", static_cast<double>(out.epochs.size())},
          {"remote_ratio", out.remote_access_ratio()},
          {"traffic_sum", traffic_sum},
          {"mult_sum", mult_sum},
          {"phase_sum", phase_sum}};
}

SweepSpec mixed_spec() {
  SweepSpec spec;
  spec.apps = {workloads::App::kHPL};  // grid label only; the measure picks Lbench
  spec.ratios = {0.5};
  spec.lois = {0.0, 25.0};
  spec.variants = {"plain", "schedule", "migrate", "anon"};
  spec.base_seed = 7;
  spec.seed_per_task = false;
  return spec;
}

TEST(Reprice, MixedEligibilitySweepWritesByteIdenticalArtifacts) {
  const SweepSpec spec = mixed_spec();
  SweepOptions opts;
  opts.jobs = 2;

  SweepOptions full_opts = opts;
  full_opts.exec.reprice = false;
  const auto reprices_before = reprice_stats().reprices;
  const SweepResult full = run_sweep(spec, mixed_measure, full_opts);
  EXPECT_EQ(reprice_stats().reprices, reprices_before);
  SweepResult repriced;
  {
    const FreshProfileCache fresh;
    repriced = run_sweep(spec, mixed_measure, opts);
    const RepriceStats stats = reprice_stats();
    // The eligible variants actually went through the repricer...
    EXPECT_GT(stats.reprices, 0u);
    // ...and the ineligible ones never touched the cache: plain and
    // schedule share one functional key (same workload, machine shaping,
    // hierarchy), so at most the two wave-1 leaders capture.
    EXPECT_LE(stats.captures, 2u);
    EXPECT_LE(reprice_cache_size(), 1u);
  }

  // The two sweeps ran with different exec options, which rows_equal
  // compares as part of each point; the written artifacts must not differ.
  ASSERT_EQ(full.rows.size(), spec.size());
  std::ostringstream csv_full, csv_repriced, json_full, json_repriced;
  full.write_csv(csv_full);
  repriced.write_csv(csv_repriced);
  full.write_json(json_full);
  repriced.write_json(json_repriced);
  EXPECT_EQ(csv_full.str(), csv_repriced.str());
  EXPECT_EQ(json_full.str(), json_repriced.str());
}

// ---- a registered scenario with a real timing axis --------------------------

// ext-cxl's measure function runs `sensitivity_sweep` over LoI levels
// {0, 50} with the workload and machine shaping held fixed, so under
// repricing the baseline run captures and the LoI-50 run folds the
// profile — reprices must be strictly positive, unlike fig06 (whose
// grid has no timing axis and is pinned as a capture-only no-op in
// tests/test_determinism.cpp). The byte-compare makes this the
// scenario-level equivalence gate for a grid that genuinely re-prices.
TEST(Reprice, ExtCxlScenarioRepricesAndMatchesFullSimulation) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double ext-cxl run exceeds the sanitized scenario timeout";
#endif
  const auto* scenario = ScenarioRegistry::instance().find("ext-cxl");
  ASSERT_NE(scenario, nullptr);
  const auto artifacts = [&](bool reprice) {
    const FreshProfileCache fresh;
    SweepOptions opts;
    opts.jobs = 1;
    opts.exec.reprice = reprice;
    const SweepResult result = run_scenario(*scenario, opts);
    std::ostringstream csv, json;
    result.write_csv(csv);
    result.write_json(json);
    if (reprice) {
      EXPECT_GT(reprice_stats().captures, 0u);
      EXPECT_GT(reprice_stats().reprices, 0u);
    } else {
      EXPECT_EQ(reprice_stats().reprices, 0u);
    }
    return std::make_pair(csv.str(), json.str());
  };
  const auto full = artifacts(false);
  const auto repriced = artifacts(true);
  EXPECT_EQ(full.first, repriced.first);
  EXPECT_EQ(full.second, repriced.second);
  EXPECT_FALSE(full.first.empty());
}

}  // namespace
}  // namespace memdis::core
