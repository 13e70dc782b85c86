#include "dualapprox/cmax_estimator.hpp"

#include <algorithm>
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

}  // namespace

void estimate_cmax_into(const Instance& instance, double rel_eps,
                        const InstanceAllotments& tables,
                        DualTestWorkspace& ws, CmaxEstimate& out) {
  validate_search_args(instance, rel_eps);

  out.estimate = 0.0;
  out.lower_bound = 0.0;
  out.dual_tests = 0;

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

CmaxEstimate estimate_cmax(const Instance& instance, double rel_eps) {
  if (instance.empty()) {
    throw std::invalid_argument("estimate_cmax: empty instance");
  }
  const InstanceAllotments tables(instance);
  DualTestWorkspace ws;
  CmaxEstimate out;
  estimate_cmax_into(instance, rel_eps, tables, ws, out);
  return out;
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
