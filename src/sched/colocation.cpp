#include "sched/colocation.h"

#include <cmath>

#include "common/contract.h"
#include "common/rng.h"

namespace memdis::sched {

double simulate_run(const JobProfile& job, double max_loi, double reroll_interval_s,
                    std::uint64_t seed) {
  expects(job.base_runtime_s > 0, "job needs a positive idle runtime");
  expects(!job.sensitivity.empty(), "job needs a sensitivity curve");
  for (const auto& point : job.sensitivity)
    expects(std::isfinite(point.relative_performance) && point.relative_performance > 0,
            "sensitivity curve must stay at a finite, positive speed");
  expects(reroll_interval_s > 0, "interval must be positive");
  Xoshiro256 rng(seed);
  double work_left = job.base_runtime_s;  // in idle-system seconds
  double wall = 0.0;
  while (work_left > 0) {
    const double loi = rng.uniform(0.0, max_loi);
    const double speed = core::interpolate_sensitivity(job.sensitivity, loi);
    const double interval_work = reroll_interval_s * speed;
    if (interval_work >= work_left) {
      wall += work_left / speed;
      work_left = 0;
    } else {
      wall += reroll_interval_s;
      work_left -= interval_work;
    }
  }
  return wall;
}

CoLocationOutcome run_colocation(const JobProfile& job, double max_loi,
                                 const CoLocationConfig& cfg) {
  expects(cfg.runs > 0, "need at least one run");
  CoLocationOutcome out;
  out.times_s.reserve(cfg.runs);
  for (std::size_t r = 0; r < cfg.runs; ++r) {
    out.times_s.push_back(
        simulate_run(job, max_loi, cfg.reroll_interval_s, cfg.seed + r * 7919));
  }
  out.summary = five_number_summary(out.times_s);
  out.mean_s = mean_of(out.times_s);
  return out;
}

CoLocationComparison compare_schedulers(const JobProfile& job, const CoLocationConfig& cfg) {
  CoLocationComparison cmp;
  cmp.baseline = run_colocation(job, cfg.max_loi_baseline, cfg);
  cmp.aware = run_colocation(job, cfg.max_loi_aware, cfg);
  cmp.mean_speedup = cmp.baseline.mean_s / cmp.aware.mean_s - 1.0;
  cmp.p75_reduction = 1.0 - cmp.aware.summary.q3 / cmp.baseline.summary.q3;
  return cmp;
}

}  // namespace memdis::sched
