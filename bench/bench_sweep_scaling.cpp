// Sweep-engine throughput baseline: wall-clock of the fig06 sweep
// (18 configurations) at jobs=1 vs jobs=hardware_concurrency, so future
// PRs can track sweep throughput. Also re-checks the determinism contract:
// parallel rows must be bit-identical to the serial rows.
//
// A second grid measures the epoch-profile repricer (docs/REPRICE.md): a
// Hypre sweep over a 6-point LoI axis runs fully simulated
// (`exec.reprice = false`) and then repriced (the default: one capture per
// functional key, O(epochs) repricing for the rest), reporting the
// wall-clock ratio and byte-comparing the two runs' written artifacts.
//
// Usage: bench_sweep_scaling [--json PATH]
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>

#include "bench_util.h"
#include "common/table.h"
#include "core/epoch_profile.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"

int main(int argc, char** argv) {
  using namespace memdis;
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") json_path = argv[++i];

  bench::banner("Sweep scaling", "fig06 sweep wall-clock, serial vs. parallel");
  const auto* scenario = core::ScenarioRegistry::instance().find("fig06");
  if (!scenario) {
    std::cerr << "error: fig06 scenario is not registered\n";
    return 2;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // Each timed sweep starts from an empty profile cache, so the second run
  // simulates rather than re-pricing the first run's captures.
  core::clear_reprice_cache();
  const auto serial = core::run_scenario(*scenario, {.jobs = 1});
  core::clear_reprice_cache();
  const auto parallel = core::run_scenario(*scenario, {.jobs = hw});
  core::clear_reprice_cache();

  const bool identical = serial.rows_equal(parallel);
  const double speedup = parallel.wall_seconds > 0 ? serial.wall_seconds / parallel.wall_seconds
                                                   : 0.0;

  // Reprice path: a grid whose only swept axis is timing (6 LoI levels on
  // one Hypre configuration) — the regime the repricer targets. Full
  // simulation prices every point from scratch; with repricing on, the
  // grid's single functional group simulates once and the other points
  // fold the cost model over its epoch profile.
  core::SweepSpec loi_grid;
  loi_grid.apps = {workloads::App::kHypre};
  loi_grid.ratios = {0.5};
  loi_grid.lois = {0.0, 10.0, 20.0, 30.0, 40.0, 50.0};
  loi_grid.seed_per_task = false;
  const auto loi_measure = [](const core::SweepPoint& point) -> std::vector<core::Metric> {
    const auto wl = point.make_workload();
    const auto out = core::run_workload(*wl, point.run_config());
    return {{"elapsed_s", out.elapsed_s},
            {"remote_ratio", out.remote_access_ratio()},
            {"epochs", static_cast<double>(out.epochs.size())}};
  };
  std::unordered_set<std::string> groups;
  for (const auto& point : loi_grid.expand()) groups.insert(point.functional_group_key());

  core::SweepOptions full_sim{.jobs = 1};
  full_sim.exec.reprice = false;
  const auto loi_full = core::run_sweep(loi_grid, loi_measure, full_sim);
  core::clear_reprice_cache();
  const auto loi_repriced = core::run_sweep(loi_grid, loi_measure, {.jobs = 1});
  const auto reprice_stats = core::reprice_stats();
  core::clear_reprice_cache();

  // The two runs differ in `exec`, so rows_equal (which compares whole
  // points) cannot judge them; the artifact bytes can.
  const auto artifacts = [](const core::SweepResult& r) {
    std::ostringstream os;
    r.write_csv(os);
    r.write_json(os);
    return os.str();
  };
  const bool reprice_identical = artifacts(loi_full) == artifacts(loi_repriced);
  const double reprice_speedup =
      loi_repriced.wall_seconds > 0 ? loi_full.wall_seconds / loi_repriced.wall_seconds : 0.0;

  Table t({"path", "configs", "wall (s)", "configs/s"});
  t.add_row({"jobs=1", std::to_string(serial.rows.size()), Table::num(serial.wall_seconds, 3),
             Table::num(static_cast<double>(serial.rows.size()) / serial.wall_seconds, 2)});
  t.add_row({"jobs=" + std::to_string(hw), std::to_string(parallel.rows.size()),
             Table::num(parallel.wall_seconds, 3),
             Table::num(static_cast<double>(parallel.rows.size()) / parallel.wall_seconds, 2)});
  t.print(std::cout);

  Table rt({"path", "configs", "groups", "wall (s)", "configs/s"});
  rt.add_row({"loi grid full", std::to_string(loi_full.rows.size()),
              std::to_string(groups.size()), Table::num(loi_full.wall_seconds, 3),
              Table::num(static_cast<double>(loi_full.rows.size()) / loi_full.wall_seconds, 2)});
  rt.add_row({"loi grid repriced", std::to_string(loi_repriced.rows.size()),
              std::to_string(groups.size()), Table::num(loi_repriced.wall_seconds, 3),
              Table::num(static_cast<double>(loi_repriced.rows.size()) /
                             loi_repriced.wall_seconds,
                         2)});
  std::cout << "\n";
  rt.print(std::cout);
  std::cout << "\nreprice: " << Table::num(reprice_speedup, 2) << "x over full simulation ("
            << reprice_stats.captures << " capture" << (reprice_stats.captures == 1 ? "" : "s")
            << " + " << reprice_stats.reprices << " re-priced); artifacts byte-identical: "
            << (reprice_identical ? "yes" : "NO") << "\n";
  if (hw > 1) {
    std::cout << "\nspeedup: " << Table::num(speedup, 2) << "x on " << hw
              << " hardware threads; rows bit-identical: " << (identical ? "yes" : "NO")
              << "\n";
  } else {
    // A jobs=hw run on one hardware thread measures scheduling overhead,
    // not parallel scaling — say so instead of reporting a ~1x "speedup".
    std::cout << "\nsingle hardware thread: parallel scaling not measurable on this host"
              << " (both runs are serial); rows bit-identical: " << (identical ? "yes" : "NO")
              << "\n";
  }

  // The JSON records hardware_concurrency next to both wall times so a
  // reader (and the nightly gate) can judge whether the jobs=hw number
  // means anything; `speedup` is only emitted when there was actual
  // parallelism to measure.
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"sweep_scaling\",\n"
       << "  \"scenario\": \"fig06\",\n"
       << "  \"configs\": " << serial.rows.size() << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"wall_s_jobs1\": " << serial.wall_seconds << ",\n"
       << "  \"wall_s_jobs_hw\": " << parallel.wall_seconds << ",\n";
  if (hw > 1) {
    json << "  \"speedup\": " << speedup << ",\n";
  } else {
    json << "  \"parallel_scaling_note\": \"1 hardware thread: jobs=hw wall time is a "
            "serial re-run, not a scaling result\",\n";
  }
  json << "  \"loi_grid_points\": " << loi_full.rows.size() << ",\n"
       << "  \"loi_grid_groups\": " << groups.size() << ",\n"
       << "  \"wall_s_reprice_off\": " << loi_full.wall_seconds << ",\n"
       << "  \"wall_s_repriced\": " << loi_repriced.wall_seconds << ",\n"
       << "  \"reprice_speedup\": " << reprice_speedup << ",\n"
       << "  \"reprice_captures\": " << reprice_stats.captures << ",\n"
       << "  \"reprice_rows_identical\": " << (reprice_identical ? "true" : "false") << ",\n"
       << "  \"rows_identical\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "baseline written to " << json_path << "\n";
  } else {
    std::cout << "\n" << json.str();
  }
  return (identical && reprice_identical) ? 0 : 1;
}
