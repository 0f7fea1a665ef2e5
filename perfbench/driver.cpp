// memdis benchmark driver: one process runs one sample of one workload.
//
//   perfbench_driver sample <workload> <seed> <out-dir> [--trace | --setup-only]
//   perfbench_driver verify <workload> <seed>
//   perfbench_driver host
//
// `sample` runs the workload the way `memdis sweep --jobs 1 --out DIR` (or
// `memdis fleet --out DIR`) does with default execution options and prints
// one JSON line: CLOCK_MONOTONIC stamps of the first grid point's start and
// of the artifacts being written, so the parent process (perfbench/run.py)
// can time the sample from its own spawn stamp. With --trace the sample
// also records spans around the calls into each layer, keeps them in
// memory, and after the artifacts are written runs the analysis passes
// that the counts come from (trace record + replay of every point); spans
// go to <out-dir>/spans.json when the process ends. --setup-only stops the
// sample where the first grid point would start, so a run can time set-up
// many times for the price of one sample.
//
// `verify` runs each grid point's workload once live and reports its own
// self-verification plus the exact demand-access count (the work behind
// the throughput metric). `host` prints the build half of the host
// fingerprint.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/epoch_profile.h"
#include "core/experiment.h"
#include "core/migration.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"
#include "fleet/arrival.h"
#include "fleet/fleet.h"
#include "trace/trace.h"
#include "trace/trace_workload.h"

namespace {

using namespace memdis;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process image in KiB: VmHWM, which exec resets.
/// (getrusage's ru_maxrss also keeps the pre-exec peak, i.e. the size of the
/// process that spawned this one.)
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---- spans -------------------------------------------------------------------

/// In-memory span log: name, start, end and parent of every span, written
/// out once when the sample ends.
class Tracer {
 public:
  int open(std::string name) {
    spans_.push_back({std::move(name), now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  void rename(int id, std::string name) {
    spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }
  void write(const std::string& path) const {
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      os << "  {\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
         << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent << "}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    if (!os) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// A span for the enclosing scope; a no-op when tracing is off.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->open(std::move(name)) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void rename(std::string name) {
    if (tracer_) tracer_->rename(id_, std::move(name));
  }

 private:
  Tracer* tracer_;
  int id_;
};

// ---- counts ------------------------------------------------------------------

/// Exact layer counts of one traced sample, summed over its grid points.
struct Counts {
  std::vector<std::pair<std::string, double>> values;
  void add(const std::string& name, double v) {
    for (auto& [key, value] : values)
      if (key == name) {
        value += v;
        return;
      }
    values.emplace_back(name, v);
  }
  void add_counters(const cachesim::HwCounters& c) {
    add("cachesim.accesses", static_cast<double>(c.accesses()));
    add("cachesim.l1_hits", static_cast<double>(c.l1_hits));
    add("cachesim.l2_hits", static_cast<double>(c.l2_hits));
    add("cachesim.llc_misses", static_cast<double>(c.offcore_l3_miss));
    add("cachesim.l2_lines_in", static_cast<double>(c.l2_lines_in));
    add("cachesim.pf_fills", static_cast<double>(c.prefetch_fills()));
    add("cachesim.pf_hits", static_cast<double>(c.pf_hits));
    add("cachesim.pf_useless", static_cast<double>(c.useless_hwpf));
    std::uint64_t fabric_lines = 0;
    for (int t = 1; t < memsim::kMaxTiers; ++t)
      fabric_lines += c.offcore_dram[static_cast<std::size_t>(t)];
    add("memsim.dram_lines.node", static_cast<double>(c.offcore_dram[memsim::kNodeTier]));
    add("memsim.dram_lines.fabric", static_cast<double>(fabric_lines));
    add("memsim.dram_bytes.node", static_cast<double>(c.node_dram_bytes()));
    add("memsim.dram_bytes.fabric", static_cast<double>(c.fabric_dram_bytes()));
  }
};

// ---- workloads ---------------------------------------------------------------

/// How a sweep workload's points simulate, which the traced replay mirrors
/// call for call (see README.md: the replay follows the scenario's measure
/// function, so a change there must be followed here).
enum class Kind { kLevel1, kSensitivity, kStagedPlanner };

struct SweepWorkload {
  const char* name;
  const char* scenario;
  Kind kind;
  std::function<void(core::SweepSpec&)> restrict_grid;
};

// One sample is a fixed sub-grid of the scenario, about two seconds long, so
// a run can take the median of about ten fresh-process samples (README.md).
const std::vector<SweepWorkload>& sweep_workloads() {
  using workloads::App;
  static const std::vector<SweepWorkload> table = {
      {"fig06-scaling", "fig06", Kind::kLevel1,
       [](core::SweepSpec& s) {
         s.apps = {App::kHPL, App::kHypre, App::kBFS};
         s.scales = {1};
       }},
      {"fig10-loi", "fig10", Kind::kSensitivity,
       [](core::SweepSpec& s) {
         s.apps = {App::kHPL, App::kSuperLU};
         s.ratios = {0.50};
       }},
      {"staged-migration", "ext-staged-migration", Kind::kStagedPlanner,
       [](core::SweepSpec& s) {
         s.ratios = {0.50};
         s.variants = {"overloaded"};
       }},
  };
  return table;
}

const SweepWorkload* find_sweep_workload(const std::string& name) {
  for (const auto& w : sweep_workloads())
    if (name == w.name) return &w;
  return nullptr;
}

// LoI levels of the fig10 scenario (kFig10Lois in core/scenarios.cpp).
const std::vector<double> kSensitivityLois = {0, 10, 20, 30, 40, 50};

/// Simulations one grid point runs: Level-1 runs prefetch on and off, the
/// sensitivity curve one run per LoI level, the staged study a direct and
/// a staged planner run.
std::size_t sims_per_point(Kind kind) {
  switch (kind) {
    case Kind::kLevel1: return 2;
    case Kind::kSensitivity: return kSensitivityLois.size();
    case Kind::kStagedPlanner: return 2;
  }
  return 0;
}

/// The run configuration of a point's first simulation.
core::RunConfig first_run_config(const core::SweepPoint& p, Kind kind) {
  core::RunConfig cfg = p.run_config();
  if (kind == Kind::kLevel1) {
    cfg.remote_capacity_ratio.reset();
    cfg.background_loi = 0.0;
    cfg.prefetch_enabled = true;
  } else if (kind == Kind::kSensitivity) {
    cfg.remote_capacity_ratio = p.ratio;
    cfg.background_loi = 0.0;
  }
  return cfg;
}

// ---- migration scan spans ----------------------------------------------------

// MigrationRuntime::on_epoch is private and attach() installs it as the
// engine's only epoch callback. To put a span around each scan without
// changing the library, the driver installs its own callback that calls
// on_epoch through a member pointer obtained by explicit instantiation
// (which the standard lets name private members, [temp.spec.general]).
using OnEpoch = void (core::MigrationRuntime::*)(sim::Engine&);
OnEpoch on_epoch_member();
template <OnEpoch P>
struct ExposeOnEpoch {
  friend OnEpoch on_epoch_member() { return P; }
};
template struct ExposeOnEpoch<&core::MigrationRuntime::on_epoch>;

/// Per-link LoI vectors of the staged-migration variants
/// (per_link_loi_of in core/scenarios.cpp).
std::vector<double> per_link_loi_of(const std::string& variant) {
  if (variant == "mid-loaded") return {0.0, 50.0, 0.0};
  if (variant == "overloaded") return {0.0, 200.0, 0.0};
  if (variant == "idle") return {};
  throw std::invalid_argument("staged replay: unknown variant " + variant);
}

/// One planner run of the staged-migration study on `wl`, mirroring
/// run_with_planner in core/scenarios.cpp, with each scan in a span.
void planner_run(workloads::Workload& wl, const core::SweepPoint& p, bool allow_staging,
                 Tracer* tracer, Counts& counts) {
  sim::EngineConfig cfg;
  const double r = p.ratio == core::kNodeOnly ? 0.5 : p.ratio;
  cfg.machine = core::machine_with_spill(core::machine_for_fabric(p.fabric), r,
                                         wl.footprint_bytes());
  cfg.background_loi_per_tier = per_link_loi_of(p.variant);
  cfg.epoch_accesses = 250'000;
  sim::Engine eng(cfg);

  core::MigrationConfig mcfg;
  mcfg.period_epochs = 1;
  mcfg.max_pages_per_scan = 16;
  mcfg.link_budget_pages = 2;
  mcfg.allow_staging = allow_staging;
  core::MigrationRuntime runtime(mcfg);
  eng.set_epoch_callback([&runtime, tracer](sim::Engine& e) {
    const Scope scan(tracer, "core.migration.scan");
    (runtime.*on_epoch_member())(e);
  });

  (void)wl.run(eng);
  eng.finish();

  counts.add_counters(eng.counters());
  counts.add("sim.epochs", static_cast<double>(eng.epochs().size()));
  counts.add("memsim.pages_migrated",
             static_cast<double>(runtime.pages_promoted() + runtime.pages_demoted()));
  counts.add("core.migration.scans", static_cast<double>(runtime.scans()));
  counts.add("core.migration.deferred_moves", static_cast<double>(runtime.deferred_moves()));
}

/// Runs `wl` under `cfg` through core::run_workload in a span named after
/// the path that served it: a full simulation, or a re-price of a captured
/// epoch profile (core/epoch_profile.h) when repricing is enabled.
void replay_run(workloads::Workload& wl, const core::RunConfig& cfg, Tracer* tracer,
                Counts& counts) {
  Scope span(tracer, "sim.run");
  const auto before = core::reprice_stats().reprices;
  const core::RunOutput out = core::run_workload(wl, cfg);
  if (core::reprice_stats().reprices != before) span.rename("core.reprice.price");
  counts.add_counters(out.counters);
  counts.add("sim.epochs", static_cast<double>(out.epochs.size()));
}

/// Replays all simulations of one grid point on the recorded trace.
void replay_point(workloads::Workload& wl, const core::SweepPoint& p, Kind kind,
                  Tracer* tracer, Counts& counts) {
  core::RunConfig cfg = first_run_config(p, kind);
  switch (kind) {
    case Kind::kLevel1:
      for (const bool prefetch : {true, false}) {
        cfg.prefetch_enabled = prefetch;
        replay_run(wl, cfg, tracer, counts);
      }
      break;
    case Kind::kSensitivity:
      for (const double loi : kSensitivityLois) {
        cfg.background_loi = loi;
        replay_run(wl, cfg, tracer, counts);
      }
      break;
    case Kind::kStagedPlanner:
      for (const bool staging : {false, true}) {
        const Scope run(tracer, "sim.run");
        planner_run(wl, p, staging, tracer, counts);
      }
      break;
  }
}

// ---- output ------------------------------------------------------------------

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_counts(const Counts& counts) {
  std::string s = "{";
  for (std::size_t i = 0; i < counts.values.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + counts.values[i].first + "\": " + json_number(counts.values[i].second);
  }
  return s + "}";
}

std::string json_bools(const std::vector<bool>& flags) {
  std::string s = "[";
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (i) s += ", ";
    s += flags[i] ? "true" : "false";
  }
  return s + "]";
}

// ---- sweep samples -----------------------------------------------------------

core::SweepSpec workload_spec(const SweepWorkload& w, std::uint64_t seed) {
  const auto* scenario = core::ScenarioRegistry::instance().find(w.scenario);
  if (!scenario) throw std::invalid_argument(std::string("unknown scenario ") + w.scenario);
  core::SweepSpec spec = scenario->spec;
  w.restrict_grid(spec);
  spec.base_seed = seed;
  return spec;
}

/// Thrown by the measure function of a --setup-only sample.
struct SetupDone {};

/// What a `sample` invocation does beyond the untraced sample.
enum class Mode { kPlain, kTraced, kSetupOnly };

void print_setup_only(std::int64_t t_first) {
  std::cout << "{\"t_first_ns\": " << t_first << "}\n";
}

int sweep_sample(const SweepWorkload& w, std::uint64_t seed, const std::string& out_dir,
                 Mode mode) {
  const bool traced = mode == Mode::kTraced;
  Tracer tracer_storage;
  Tracer* tracer = traced ? &tracer_storage : nullptr;
  std::int64_t t_first = 0;
  Counts counts;
  std::string artifacts;
  std::vector<core::SweepPoint> points;
  {
    const Scope root(tracer, "driver");
    const auto* scenario = core::ScenarioRegistry::instance().find(w.scenario);
    const core::SweepSpec spec = workload_spec(w, seed);
    core::MeasureFn measure = [&](const core::SweepPoint& p) {
      if (t_first == 0) t_first = now_ns();
      if (mode == Mode::kSetupOnly) throw SetupDone{};
      const Scope point(tracer, "core.point");
      return scenario->measure(p);
    };
    core::SweepResult result;
    try {
      result = core::run_sweep(spec, measure, core::SweepOptions{1});
    } catch (const SetupDone&) {
      print_setup_only(t_first);
      return 0;
    }
    result.scenario = scenario->name;
    {
      const Scope write(tracer, "common.artifact_write");
      std::filesystem::create_directories(out_dir);
      const std::string csv = out_dir + "/" + scenario->name + ".csv";
      const std::string json = out_dir + "/" + scenario->name + ".json";
      result.write_csv_file(csv);
      result.write_json_file(json);
      artifacts = "[\"" + csv + "\", \"" + json + "\"]";
    }
    for (const auto& row : result.rows) points.push_back(row.point);
  }
  const std::int64_t t_done = now_ns();
  const long peak_rss_kib = ::peak_rss_kib();

  std::vector<bool> verified;
  bool accesses_match = true;
  if (traced) {
    // Counts of the live sweep first: the replay below must not disturb them.
    const auto stats = core::reprice_stats();
    counts.add("core.reprice.captures", static_cast<double>(stats.captures));
    counts.add("core.reprice.reprices", static_cast<double>(stats.reprices));
    counts.add("core.reprice.cache_entries", static_cast<double>(core::reprice_cache_size()));
    const std::string trace_path = out_dir + "/point.mdtr";
    for (const auto& p : points) {
      const Scope analysis(&tracer_storage, "analysis");
      core::RunOutput recorded;
      // With repricing on, an empty cache makes the record pass simulate
      // (and so record), and makes the replay capture and re-price where a
      // live point with no earlier points would.
      core::clear_reprice_cache();
      {
        const Scope record(&tracer_storage, "trace.record");
        trace::TraceRecordWorkload wl(p.make_workload(), workloads::app_name(p.app), p.scale,
                                      p.seed, trace_path);
        recorded = core::run_workload(wl, first_run_config(p, w.kind));
      }
      verified.push_back(recorded.result.verified);
      std::string error;
      auto data = trace::TraceData::load(trace_path, error);
      if (!data) throw std::runtime_error("trace load: " + error);
      trace::TraceReplayWorkload replay(std::move(*data));
      replay.set_functional_id(p.make_workload()->functional_id());
      core::clear_reprice_cache();
      Counts point_counts;
      {
        const Scope span(&tracer_storage, "sim.replay");
        replay_point(replay, p, w.kind, &tracer_storage, point_counts);
      }
      // Demand accesses depend on the access stream only, so every replayed
      // simulation must see exactly the live recording's count.
      for (const auto& [name, value] : point_counts.values) {
        counts.add(name, value);
        if (name == "cachesim.accesses" &&
            value != static_cast<double>(recorded.counters.accesses() * sims_per_point(w.kind)))
          accesses_match = false;
      }
    }
    std::filesystem::remove(trace_path);
    tracer_storage.write(out_dir + "/spans.json");
  }

  std::cout << "{\"t_first_ns\": " << t_first << ", \"t_done_ns\": " << t_done
            << ", \"peak_rss_kib\": " << peak_rss_kib << ", \"points\": " << points.size()
            << ", \"artifacts\": " << artifacts;
  if (traced)
    std::cout << ", \"verified\": " << json_bools(verified)
              << ", \"accesses_match\": " << (accesses_match ? "true" : "false")
              << ", \"counts\": " << json_counts(counts);
  std::cout << "}\n";
  return 0;
}

/// Live self-verification of every point, plus the exact demand-access
/// count of the sample (accesses per simulation times simulations).
int sweep_verify(const SweepWorkload& w, std::uint64_t seed) {
  std::vector<bool> verified;
  double accesses = 0;
  for (const auto& p : workload_spec(w, seed).expand()) {
    auto wl = p.make_workload();
    const core::RunOutput out = core::run_workload(*wl, first_run_config(p, w.kind));
    verified.push_back(out.result.verified);
    accesses += static_cast<double>(out.counters.accesses() * sims_per_point(w.kind));
  }
  std::cout << "{\"verified\": " << json_bools(verified)
            << ", \"accesses\": " << json_number(accesses) << "}\n";
  return 0;
}

// ---- fleet sample ------------------------------------------------------------

// fleet-rack: `memdis fleet --pools 8 --arrivals poisson:0.48:<count>` with
// every other option at its default.
constexpr std::size_t kFleetPools = 8;
constexpr double kFleetRate = 0.48;
constexpr std::size_t kFleetArrivals = 60'000;

/// Structural self-check of a fleet result: every arrival ends rejected or
/// completed, completed jobs start after arriving and finish after starting
/// on a real pool, and the summary counts agree with the rows.
bool fleet_result_consistent(const fleet::FleetResult& r, std::size_t arrivals,
                             std::size_t pools) {
  if (r.jobs.size() != arrivals || r.completed + r.rejected != arrivals) return false;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    const auto& j = r.jobs[i];
    if (j.index != i) return false;
    if (j.rejected) continue;
    ++completed;
    if (!(j.start_s >= j.arrival_s && j.finish_s >= j.start_s && j.work_s > 0)) return false;
    if (j.pool < 0 || static_cast<std::size_t>(j.pool) >= pools) return false;
    if (!std::isfinite(j.slowdown()) || j.slowdown() <= 0) return false;
  }
  return completed == r.completed;
}

int fleet_sample(std::uint64_t seed, const std::string& out_dir, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  Tracer tracer_storage;
  Tracer* tracer = traced ? &tracer_storage : nullptr;
  std::int64_t t_first = 0;
  std::string artifacts;
  fleet::FleetResult result;
  fleet::FleetConfig cfg;
  double artifact_bytes = 0;
  {
    const Scope root(tracer, "driver");
    cfg.pools = fleet::default_pools(kFleetPools);
    cfg.base_seed = seed;
    const auto classes = fleet::default_job_classes();
    std::vector<double> weights;
    for (const auto& cls : classes) weights.push_back(cls.weight);
    fleet::ArrivalSpec spec;
    spec.rate_per_s = kFleetRate;
    spec.count = kFleetArrivals;
    std::vector<fleet::Arrival> arrivals;
    {
      const Scope expand(tracer, "fleet.expand");
      arrivals = fleet::expand_poisson_arrivals(spec, weights, cfg.base_seed);
    }
    t_first = now_ns();
    if (mode == Mode::kSetupOnly) {
      print_setup_only(t_first);
      return 0;
    }
    {
      const Scope run(tracer, "fleet.run");
      result = fleet::run_fleet(cfg, classes, arrivals, 1);
    }
    {
      const Scope write(tracer, "common.artifact_write");
      std::filesystem::create_directories(out_dir);
      const std::string csv = out_dir + "/fleet.csv";
      const std::string json = out_dir + "/fleet.json";
      result.write_csv_file(csv);
      result.write_json_file(json);
      artifacts = "[\"" + csv + "\", \"" + json + "\"]";
      artifact_bytes =
          static_cast<double>(std::filesystem::file_size(csv) + std::filesystem::file_size(json));
    }
  }
  const std::int64_t t_done = now_ns();
  const long peak_rss_kib = ::peak_rss_kib();

  const bool ok = fleet_result_consistent(result, kFleetArrivals, cfg.pools.size());
  std::cout << "{\"t_first_ns\": " << t_first << ", \"t_done_ns\": " << t_done
            << ", \"peak_rss_kib\": " << peak_rss_kib << ", \"points\": 1, \"arrivals\": "
            << kFleetArrivals
            << ", \"artifacts\": " << artifacts << ", \"verified\": [" << (ok ? "true" : "false")
            << "]";
  if (traced) {
    Counts counts;
    counts.add("fleet.steps", std::round(result.makespan_s / cfg.step_s));
    counts.add("fleet.completed", static_cast<double>(result.completed));
    counts.add("fleet.rejected", static_cast<double>(result.rejected));
    counts.add("fleet.migrations", static_cast<double>(result.migrations));
    counts.add("common.artifact_bytes", artifact_bytes);
    std::cout << ", \"accesses_match\": true, \"counts\": " << json_counts(counts);
    tracer_storage.write(out_dir + "/spans.json");
  }
  std::cout << "}\n";
  return 0;
}

// ---- host --------------------------------------------------------------------

const char* simd_isa() {
#if defined(MEMDIS_SIMD_DISABLED)
  return "scalar";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

int usage() {
  std::cerr << "usage: perfbench_driver sample <workload> <seed> <out-dir> "
               "[--trace | --setup-only]\n"
               "       perfbench_driver verify <workload> <seed>\n"
               "       perfbench_driver host\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "host") {
    std::cout << "{\"simd\": \"" << simd_isa() << "\", \"compiler\": \"" << PERFBENCH_COMPILER
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}\n";
    return 0;
  }
  if (args.size() < 3) return usage();
  const std::string& command = args[0];
  const std::string& workload = args[1];
  std::uint64_t seed = 0;
  try {
    std::size_t used = 0;
    seed = std::stoull(args[2], &used);
    if (used != args[2].size()) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  try {
    const SweepWorkload* sweep = find_sweep_workload(workload);
    if (command == "sample" && (args.size() == 4 || args.size() == 5)) {
      Mode mode = Mode::kPlain;
      if (args.size() == 5 && args[4] == "--trace") {
        mode = Mode::kTraced;
      } else if (args.size() == 5 && args[4] == "--setup-only") {
        mode = Mode::kSetupOnly;
      } else if (args.size() == 5) {
        return usage();
      }
      if (workload == "fleet-rack") return fleet_sample(seed, args[3], mode);
      if (sweep) return sweep_sample(*sweep, seed, args[3], mode);
    } else if (command == "verify" && args.size() == 3 && sweep) {
      return sweep_verify(*sweep, seed);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
