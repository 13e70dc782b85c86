/// \file experiment.hpp
/// The measurement loop behind Figures 3-7: generate `runs` random
/// instances per (family, n) point, compute both lower bounds, run every
/// algorithm, validate its schedule, and aggregate performance ratios the
/// way the paper does (ratio of sums across runs, min/max envelope).

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/algorithms.hpp"
#include "lp/simplex.hpp"
#include "tasks/instance.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workloads/generators.hpp"

namespace moldsched {

struct PointConfig {
  WorkloadFamily family = WorkloadFamily::HighlyParallel;
  int n = 25;           ///< number of tasks
  int m = 200;          ///< processors (the paper's cluster size)
  int runs = 40;        ///< instances per point (paper: 40)
  std::uint64_t seed = 20040627;  ///< base seed (SPAA'04 started June 27)
  GeneratorConfig generator;
  SimplexOptions lp_options;
};

struct AlgoPointStats {
  RatioOfSums cmax_ratio;   ///< vs dual-approximation lower bound
  RatioOfSums minsum_ratio; ///< vs LP relaxation lower bound
  /// Wall-clock per scheduling call, measured while replicates run on
  /// however many workers are active — comparable between algorithms in
  /// the same run, but inflated vs. a sequential sweep on a loaded
  /// machine. For clean runtime curves use bench/fig7_runtime, which times
  /// calls one at a time.
  RunningStats runtime_s;
};

struct PointResult {
  PointConfig config;
  /// Keyed by algorithm name, insertion order preserved separately.
  std::map<std::string, AlgoPointStats> stats;
  std::vector<std::string> algorithm_order;
  RunningStats lp_bound;       ///< LP optimum values across runs
  RunningStats lp_iterations;
  RunningStats cmax_lower_bound;
};

/// Run one experiment point. Runs execute in parallel on `pool` when
/// provided, or on the process-wide shared pool when `pool` is null (each
/// run owns a forked RNG stream, so results do not depend on the worker
/// count or interleaving). Every schedule is validated; an invalid one
/// throws.
[[nodiscard]] PointResult run_point(const PointConfig& config,
                                    const std::vector<AlgorithmSpec>& algorithms,
                                    ThreadPool* pool = nullptr);

}  // namespace moldsched
