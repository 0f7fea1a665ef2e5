// Rack-scale interference-aware scheduling (Sec. 7.2 extension).
//
// Builds one fleet job class per application from measured Level-3 data,
// then runs a mixed job stream through fleet::run_fleet under first-fit
// and LoI-aware placement — the "more than two nodes per memory pool"
// scenario the paper anticipates. Each pool is a node group sharing one
// disaggregated pool, and co-runners' measured link traffic produces each
// job's interference.
#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"
#include "core/profiler.h"
#include "fleet/arrival.h"
#include "fleet/fleet.h"

int main() {
  using namespace memdis;

  // Measure each application's Level-3 profile once (50% pooled).
  std::cout << "Measuring Level-3 profiles for the job mix...\n";
  const core::MultiLevelProfiler profiler;
  std::vector<fleet::JobClass> classes;
  Xoshiro256 rng(7);
  for (const auto app : workloads::kAllApps) {
    auto wl = workloads::make_workload(app, 1);
    const auto l3 = profiler.level3(*wl, 0.5, {0, 25, 50});
    fleet::JobClass cls;
    cls.profile.app = wl->name();
    cls.profile.base_runtime_s = 600.0;  // paper-scale job length
    cls.profile.sensitivity = l3.sensitivity;
    // Traffic this job offers its pool co-runners: its measured fabric
    // data rate at 50% pooled.
    core::RunConfig rc = profiler.base_config();
    rc.remote_capacity_ratio = 0.5;
    auto wl2 = workloads::make_workload(app, 1);
    const auto run = core::run_workload(*wl2, rc);
    cls.profile.offered_gbps =
        bytes_per_sec_to_gbps(static_cast<double>(run.counters.fabric_dram_bytes()) /
                              run.elapsed_s);
    cls.nodes = 1 + rng.uniform_below(4);
    cls.pool_demand_gb = 32.0 + 32.0 * static_cast<double>(rng.uniform_below(4));
    classes.push_back(cls);
  }

  Table mix({"app", "nodes", "pool GB", "offered GB/s", "speed at LoI 50"});
  for (const auto& cls : classes)
    mix.add_row({cls.profile.app, std::to_string(cls.nodes), Table::num(cls.pool_demand_gb, 0),
                 Table::num(cls.profile.offered_gbps, 2),
                 Table::num(core::interpolate_sensitivity(cls.profile.sensitivity, 50.0), 3)});
  mix.print(std::cout);
  std::cout << "\n";

  // Four pools of 8 nodes sharing 512 GB each; placement alone is compared.
  fleet::PoolSpec pool;
  pool.capacity_gb = 512.0;
  pool.nodes = 8;
  fleet::FleetConfig cfg;
  cfg.pools.assign(4, pool);
  cfg.migration = false;

  // A mixed stream: 48 jobs, round-robin apps, staggered arrivals.
  std::vector<fleet::Arrival> arrivals;
  for (std::size_t i = 0; i < 48; ++i)
    arrivals.push_back({static_cast<double>(i) * 75.0, i % classes.size(),
                        fleet::arrival_seed(cfg.base_seed, i)});

  Table t({"policy", "completed", "makespan (s)", "mean runtime (s)", "mean wait (s)",
           "mean slowdown"});
  int status = 0;
  for (const auto policy : {fleet::AdmissionPolicy::kFirstFit, fleet::AdmissionPolicy::kLoiAware}) {
    cfg.policy = policy;
    const auto out = fleet::run_fleet(cfg, classes, arrivals);
    double runtime = 0.0, wait = 0.0, slowdown = 0.0;
    for (const auto& job : out.jobs) {
      runtime += job.finish_s - job.start_s;
      wait += job.wait_s();
      slowdown += job.slowdown();
    }
    const double n = static_cast<double>(out.jobs.size());
    t.add_row({policy == fleet::AdmissionPolicy::kFirstFit ? "first-fit" : "loi-aware",
               std::to_string(out.completed), Table::num(out.makespan_s, 0),
               Table::num(runtime / n, 1), Table::num(wait / n, 1),
               Table::num(slowdown / n, 4)});
    if (out.completed != arrivals.size()) status = 1;
  }
  t.print(std::cout);
  std::cout << "\nFirst-fit fills pool 0 before touching pool 1; the LoI-aware policy\n"
               "places each job on the pool whose link it would load least, so heavy\n"
               "interferers share a pool less often. Unlike the Fig. 13 study, no LoI\n"
               "is drawn here: each job's interference is its co-runners' measured\n"
               "traffic, slowed by the interference it causes them in turn.\n";
  if (status != 0) std::cerr << "error: a policy left jobs unfinished\n";
  return status;
}
