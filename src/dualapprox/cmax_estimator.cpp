#include "dualapprox/cmax_estimator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace moldsched {
namespace {

void validate_search_args(const Instance& instance, double rel_eps) {
  if (instance.empty()) {
    throw std::invalid_argument("estimate_cmax: empty instance");
  }
  if (!(rel_eps > 0.0)) {
    throw std::invalid_argument("estimate_cmax: rel_eps must be positive");
  }
}

double combinatorial_lower_bound(const Instance& instance) {
  // The machine must absorb the minimal total work, and every task needs at
  // least its fastest execution time.
  double lb = instance.total_min_work() / instance.procs();
  for (const auto& task : instance.tasks()) {
    lb = std::max(lb, task.min_time());
  }
  return lb;
}

/// Same bound read from the tables' per-task minima (bit-identical: the
/// tables hold the same doubles, summed in the same task order), so the
/// search makes no O(n * max_procs) scan of its own.
double combinatorial_lower_bound(const InstanceAllotments& tables, int m) {
  double lb = tables.total_min_work() / m;
  for (int t = 0; t < tables.num_tasks(); ++t) {
    lb = std::max(lb, tables.min_time(t));
  }
  return lb;
}

/// Warm-started form of the search below: replay the *exact* cold probe
/// trajectory (combinatorial bound, exponential doubling, bisection on
/// `mid = 0.5 * (lo + hi)`) against an outcome oracle seeded by re-testing
/// the previous call's accepted bounds. A probe at or above an accepted
/// lambda is inferred accepted, at or below a rejected lambda inferred
/// rejected (the dual test's monotone structure), and everything else runs
/// a real dual test that extends the oracle. Identical probe sequence →
/// identical bracket arithmetic → bit-identical estimate/lower_bound; on
/// near-identical consecutive instances almost every probe is inferred, so
/// the real dual_test count collapses. The final estimate is always
/// materialised by a real test (the accepted partition must be genuine);
/// if that test refutes an inferred acceptance — a monotonicity violation —
/// the whole search falls back to the cold path, so correctness never
/// rests on the oracle.
void warm_estimate_cmax_into(const Instance& instance, double rel_eps,
                             const InstanceAllotments& tables,
                             DualTestWorkspace& ws, CmaxEstimate& out) {
  double max_rejected = 0.0;  // 0 = nothing rejected yet (lambdas are > 0)
  double min_accepted = std::numeric_limits<double>::infinity();
  double partition_lambda = 0.0;  // lambda out.partition currently holds
  const auto real_test = [&](double lambda) -> bool {
    ++out.dual_tests;
    dual_test_into(instance, lambda, tables, ws, ws.scratch);
    if (ws.scratch.feasible) {
      min_accepted = std::min(min_accepted, lambda);
      std::swap(out.partition, ws.scratch);
      partition_lambda = lambda;
      return true;
    }
    max_rejected = std::max(max_rejected, lambda);
    return false;
  };
  const auto probe = [&](double lambda) -> bool {
    if (lambda >= min_accepted) return true;
    if (lambda <= max_rejected) return false;
    return real_test(lambda);
  };
  const auto record = [&](double final_lo, double final_hi) {
    ws.warm.valid = true;
    ws.warm.lo = final_lo;
    ws.warm.hi = final_hi;
  };
  // Run the cold search with real tests only (the fallback, and the shared
  // tail of both paths once a trajectory is fixed).
  const auto cold_search = [&](double lb) {
    if (real_test(lb)) {
      out.estimate = lb;
      record(0.0, lb);
      return;
    }
    double lo = lb;
    double hi = lb * 2.0;
    while (!real_test(hi)) {
      lo = hi;
      hi *= 2.0;
      if (hi > lb * 1e9 * 2.0) {
        throw std::logic_error("estimate_cmax: dual test never accepts");
      }
    }
    while (hi - lo > rel_eps * hi) {
      const double mid = 0.5 * (lo + hi);
      if (real_test(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    out.estimate = hi;
    out.lower_bound = std::max(lb, lo);
    record(lo, hi);
  };

  const double lb = combinatorial_lower_bound(tables, instance.procs());
  out.lower_bound = lb;

  // Seed the oracle from the previous call's bounds (cold start when none).
  if (ws.warm.valid) {
    if (ws.warm.hi > 0.0 && ws.warm.hi < min_accepted &&
        ws.warm.hi > max_rejected) {
      (void)real_test(ws.warm.hi);
    }
    if (ws.warm.lo > 0.0 && ws.warm.lo < min_accepted &&
        ws.warm.lo > max_rejected) {
      (void)real_test(ws.warm.lo);
    }
  }

  double estimate;
  double final_lo;  // rejected bracket bound; 0 when lb was accepted
  if (probe(lb)) {
    estimate = lb;
    final_lo = 0.0;
  } else {
    double lo = lb;
    double hi = lb * 2.0;
    while (!probe(hi)) {
      lo = hi;
      hi *= 2.0;
      if (hi > lb * 1e9 * 2.0) {
        throw std::logic_error("estimate_cmax: dual test never accepts");
      }
    }
    while (hi - lo > rel_eps * hi) {
      const double mid = 0.5 * (lo + hi);
      if (probe(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    estimate = hi;
    out.lower_bound = std::max(lb, lo);
    final_lo = lo;
  }

  // Materialise the partition at the estimate: the trajectory may have
  // accepted it by inference only, or last swapped the partition at a
  // larger accepted guess.
  if (partition_lambda != estimate) {
    if (!real_test(estimate)) {
      // The oracle inferred an acceptance the real test refutes. Restart
      // cold; the accumulated dual_tests count keeps the wasted probes
      // visible.
      out.lower_bound = lb;
      cold_search(lb);
      return;
    }
  }
  out.estimate = estimate;
  record(final_lo, estimate);
}

}  // namespace

void estimate_cmax_into(const Instance& instance, double rel_eps,
                        const InstanceAllotments& tables,
                        DualTestWorkspace& ws, CmaxEstimate& out) {
  validate_search_args(instance, rel_eps);

  out.estimate = 0.0;
  out.lower_bound = 0.0;
  out.dual_tests = 0;

  if (ws.warm.enabled) {
    warm_estimate_cmax_into(instance, rel_eps, tables, ws, out);
    return;
  }
  // Two rotating partition buffers: ws.scratch receives each test,
  // out.partition keeps the last accepted guess. Swapping (never
  // reallocating) keeps the whole search allocation-free once both buffers
  // are warm.
  const auto test = [&](double lambda) -> DualTestResult& {
    ++out.dual_tests;
    dual_test_into(instance, lambda, tables, ws, ws.scratch);
    return ws.scratch;
  };

  const double lb = combinatorial_lower_bound(tables, instance.procs());
  out.lower_bound = lb;

  // If the dual test already accepts the combinatorial bound, it is also
  // the estimate — no schedule can beat it.
  if (test(lb).feasible) {
    out.estimate = lb;
    std::swap(out.partition, ws.scratch);
    return;
  }

  // Exponential search for an accepted guess, then bisection. `lo` is
  // always rejected, `hi` always accepted.
  double lo = lb;
  double hi = lb * 2.0;
  while (!test(hi).feasible) {
    lo = hi;
    hi *= 2.0;
    if (hi > lb * 1e9 * 2.0) {
      throw std::logic_error("estimate_cmax: dual test never accepts");
    }
  }
  std::swap(out.partition, ws.scratch);

  while (hi - lo > rel_eps * hi) {
    const double mid = 0.5 * (lo + hi);
    if (test(mid).feasible) {
      hi = mid;
      std::swap(out.partition, ws.scratch);
    } else {
      lo = mid;
    }
  }

  out.estimate = hi;
  out.lower_bound = std::max(lb, lo);
}

CmaxEstimate estimate_cmax(const Instance& instance, double rel_eps,
                           const InstanceAllotments& tables,
                           DualTestWorkspace& ws) {
  CmaxEstimate out;
  estimate_cmax_into(instance, rel_eps, tables, ws, out);
  return out;
}

CmaxEstimate estimate_cmax(const Instance& instance, double rel_eps,
                           const InstanceAllotments& tables) {
  DualTestWorkspace ws;
  return estimate_cmax(instance, rel_eps, tables, ws);
}

CmaxEstimate estimate_cmax(const Instance& instance, double rel_eps) {
  if (instance.empty()) {
    throw std::invalid_argument("estimate_cmax: empty instance");
  }
  const InstanceAllotments tables(instance);
  return estimate_cmax(instance, rel_eps, tables);
}

CmaxEstimate estimate_cmax_reference(const Instance& instance,
                                     double rel_eps) {
  validate_search_args(instance, rel_eps);

  CmaxEstimate out;
  DualTestResult trial;
  const auto test = [&](double lambda) -> DualTestResult& {
    ++out.dual_tests;
    trial = dual_test_reference(instance, lambda);
    return trial;
  };

  const double lb = combinatorial_lower_bound(instance);
  out.lower_bound = lb;

  if (test(lb).feasible) {
    out.estimate = lb;
    out.partition = std::move(trial);
    return out;
  }

  double lo = lb;
  double hi = lb * 2.0;
  while (!test(hi).feasible) {
    lo = hi;
    hi *= 2.0;
    if (hi > lb * 1e9 * 2.0) {
      throw std::logic_error("estimate_cmax: dual test never accepts");
    }
  }
  out.partition = trial;

  while (hi - lo > rel_eps * hi) {
    const double mid = 0.5 * (lo + hi);
    if (test(mid).feasible) {
      hi = mid;
      out.partition = trial;
    } else {
      lo = mid;
    }
  }

  out.estimate = hi;
  out.lower_bound = std::max(lb, lo);
  return out;
}

}  // namespace moldsched
