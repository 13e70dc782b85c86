#include "dualapprox/dual_test.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace moldsched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int16_t kShelf2 = -1;
constexpr std::int16_t kUnreachable = -2;

/// Build the per-task shelf choices, pooled flat in `ws`: shelf-1 Pareto
/// options (increasing processor count with strictly decreasing work; for
/// monotone tasks a singleton found by binary search) and the min-work
/// lambda/2 allotment. `tables` may be null (scan-based lookups). Returns
/// false when some task cannot meet lambda at all — an immediate reject.
/// Shared verbatim by the vectorized and reference DPs: the rewrite only
/// touched the DP loop order, not the option construction.
bool build_shelf_options(const Instance& instance, double lambda,
                         const InstanceAllotments* tables,
                         DualTestWorkspace& ws) {
  const int n = instance.num_tasks();
  ws.opt_procs.clear();
  ws.opt_work.clear();
  ws.opt_begin.assign(static_cast<std::size_t>(n) + 1, 0);
  ws.shelf2_work.assign(static_cast<std::size_t>(n), kInf);
  ws.shelf2_procs.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const MoldableTask& task = instance.tasks()[static_cast<std::size_t>(i)];
    // k * time(k) without the range check: c1 and g2 are allowed
    // allotments of this task.
    const auto work = [&task](int k) {
      return k * task.times()[static_cast<std::size_t>(k) - 1];
    };
    if (tables != nullptr && tables->table(i).strictly_monotone()) {
      // Monotone fast path: time non-increasing means every allotment from
      // the canonical one up meets lambda, and work non-decreasing means
      // none of them beats the canonical work — the Pareto set is a
      // singleton.
      const int c1 = tables->table(i).canonical(lambda);
      if (c1 == 0) return false;  // cannot meet lambda: reject
      ws.opt_procs.push_back(c1);
      ws.opt_work.push_back(work(c1));
    } else {
      const std::size_t begin = ws.opt_procs.size();
      for (int k = task.min_procs(); k <= task.max_procs(); ++k) {
        if (task.time(k) > lambda) continue;
        const double w = task.work(k);
        if (ws.opt_procs.size() > begin && ws.opt_work.back() <= w) continue;
        ws.opt_procs.push_back(k);
        ws.opt_work.push_back(w);
      }
      if (ws.opt_procs.size() == begin) return false;  // reject
    }
    ws.opt_begin[static_cast<std::size_t>(i) + 1] =
        static_cast<int>(ws.opt_procs.size());
    const int g2 = tables != nullptr
                       ? tables->table(i).min_work(lambda / 2.0)
                       : task.min_work_allotment(lambda / 2.0);
    if (g2 > 0) {
      ws.shelf2_work[static_cast<std::size_t>(i)] = work(g2);
      ws.shelf2_procs[static_cast<std::size_t>(i)] = g2;
    }
  }
  return true;
}

/// Feasibility check + partition reconstruction from the final DP row and
/// the pick matrix. Identical for both DP variants (they fill the same
/// cells with the same values).
void finish_from_dp(double lambda, int n, int m, DualTestWorkspace& ws,
                    DualTestResult& out) {
  const std::size_t row = static_cast<std::size_t>(m) + 1;
  if (ws.dp[static_cast<std::size_t>(m)] >= kInf) {
    return;  // even ignoring work, shelf-1 demand cannot fit: reject
  }
  out.total_work = ws.dp[static_cast<std::size_t>(m)];
  out.feasible =
      out.total_work <= static_cast<double>(m) * lambda * (1.0 + 1e-12);
  if (!out.feasible) return;

  // Reconstruct the work-minimising partition.
  // Walk budgets backwards: at task i with budget j, the recorded pick
  // tells which option produced dp_i[j]; dp arrays are rebuilt implicitly
  // by the monotone budget walk.
  int j = m;
  for (int i = n - 1; i >= 0; --i) {
    const std::int16_t p =
        ws.pick[static_cast<std::size_t>(i) * row + static_cast<std::size_t>(j)];
    if (p == kUnreachable) {
      throw std::logic_error("dual_test: broken DP reconstruction");
    }
    if (p == kShelf2) {
      out.assignment[static_cast<std::size_t>(i)] = ShelfAssignment{
          Shelf::Small, ws.shelf2_procs[static_cast<std::size_t>(i)]};
    } else {
      const auto o =
          static_cast<std::size_t>(ws.opt_begin[i]) + static_cast<std::size_t>(p);
      out.assignment[static_cast<std::size_t>(i)] =
          ShelfAssignment{Shelf::Large, ws.opt_procs[o]};
      j -= ws.opt_procs[o];
    }
  }
}

/// Vectorized implementation; `tables` may be null. Runs entirely inside
/// `ws` — the only allocations are capacity growth on the first call at a
/// given (n, m) and `out.assignment` growth.
///
/// Soundness of the rejection certificate: any schedule of length lambda
/// induces a partition where "long" tasks (running more than lambda/2) all
/// overlap the midpoint, hence their true allotments sum to <= m, and every
/// "short" task has a lambda/2-feasible allotment. The DP minimises total
/// work over a superset of those partitions, so min-work > m*lambda (or no
/// partition at all) refutes the guess for ANY task structure, monotone or
/// not.
///
/// The DP is the reference recurrence with the loops interchanged: instead
/// of computing each budget cell by scanning its options, each option makes
/// one contiguous row sweep over budgets [cost..m] with select updates. The
/// shelf-2 seed rides in the first option's sweep (every task has at least
/// one option), so a task with a single option — every strictly monotone
/// one — costs one pass over the row. Per cell the comparison sequence is
/// unchanged — shelf-2 seed first, then options in ascending order, each a
/// strict `<` against the running best — so every cell receives the
/// bit-identical value and pick. Every pick cell is written, so the pick
/// matrix needs no fill. Infinities stay well-behaved: base = +inf gives
/// candidate = +inf, and +inf < best is false even when best is +inf,
/// matching the reference's explicit finiteness guards (no NaN can arise;
/// work values are finite and non-negative).
void dual_test_vec_impl(const Instance& instance, double lambda,
                        const InstanceAllotments* tables,
                        DualTestWorkspace& ws, DualTestResult& out) {
  if (!(lambda > 0.0)) {
    throw std::invalid_argument("dual_test: lambda must be positive");
  }
  const int n = instance.num_tasks();
  const int m = instance.procs();
  out.feasible = false;
  out.total_work = 0.0;
  out.assignment.assign(static_cast<std::size_t>(n), ShelfAssignment{});

  if (!build_shelf_options(instance, lambda, tables, ws)) return;

  // DP over the shelf-1 processor budget: dp[j] = min total work when
  // shelf-1 allotments sum to <= j. Option index per (task, budget) for
  // reconstruction; kShelf2 means the task stayed in shelf 2.
  const std::size_t row = static_cast<std::size_t>(m) + 1;
  ws.dp.assign(row, 0.0);
  ws.next.resize(row);
  ws.pick.resize(static_cast<std::size_t>(n) * row);

  for (int i = 0; i < n; ++i) {
    const auto begin = static_cast<std::size_t>(ws.opt_begin[i]);
    const auto end = static_cast<std::size_t>(ws.opt_begin[i + 1]);
    const double shelf2 = ws.shelf2_work[static_cast<std::size_t>(i)];
    const double* dp = ws.dp.data();
    double* next = ws.next.data();
    std::int16_t* pick_row =
        ws.pick.data() + static_cast<std::size_t>(i) * row;
    // Shelf-2 seed for every budget, fused with the first option's sweep
    // from its cost on: the seed is the running best that option 0 must
    // strictly beat.
    const auto cost0 = static_cast<std::size_t>(ws.opt_procs[begin]);
    const double w0 = ws.opt_work[begin];
    for (std::size_t j = 0; j < cost0; ++j) {
      const double cand = dp[j] + shelf2;
      const bool ok = cand < kInf;
      next[j] = ok ? cand : kInf;
      pick_row[j] = ok ? kShelf2 : kUnreachable;
    }
    for (std::size_t j = cost0; j < row; ++j) {
      const double seed = dp[j] + shelf2;
      const bool ok = seed < kInf;
      const double best = ok ? seed : kInf;
      const std::int16_t best_pick = ok ? kShelf2 : kUnreachable;
      const double cand = dp[j - cost0] + w0;
      const bool better = cand < best;
      next[j] = better ? cand : best;
      pick_row[j] = better ? std::int16_t{0} : best_pick;
    }
    // One row sweep per further shelf-1 option, ascending (preserves the
    // reference's option visit order per cell).
    for (std::size_t o = begin + 1; o < end; ++o) {
      const auto cost = static_cast<std::size_t>(ws.opt_procs[o]);
      const double w = ws.opt_work[o];
      const auto id = static_cast<std::int16_t>(o - begin);
      for (std::size_t j = cost; j < row; ++j) {
        const double cand = dp[j - cost] + w;
        const bool better = cand < next[j];
        next[j] = better ? cand : next[j];
        pick_row[j] = better ? id : pick_row[j];
      }
    }
    ws.dp.swap(ws.next);
  }

  finish_from_dp(lambda, n, m, ws, out);
}

/// Original scalar DP (budget-outer, option scan with early break and
/// conditional updates), preserved verbatim as the reference.
void dual_test_reference_impl(const Instance& instance, double lambda,
                              const InstanceAllotments* tables,
                              DualTestWorkspace& ws, DualTestResult& out) {
  if (!(lambda > 0.0)) {
    throw std::invalid_argument("dual_test: lambda must be positive");
  }
  const int n = instance.num_tasks();
  const int m = instance.procs();
  out.feasible = false;
  out.total_work = 0.0;
  out.assignment.assign(static_cast<std::size_t>(n), ShelfAssignment{});

  if (!build_shelf_options(instance, lambda, tables, ws)) return;

  const std::size_t row = static_cast<std::size_t>(m) + 1;
  ws.dp.assign(row, 0.0);
  ws.next.resize(row);
  ws.pick.assign(static_cast<std::size_t>(n) * row, kUnreachable);

  for (int i = 0; i < n; ++i) {
    const auto begin = static_cast<std::size_t>(ws.opt_begin[i]);
    const auto end = static_cast<std::size_t>(ws.opt_begin[i + 1]);
    const double shelf2 = ws.shelf2_work[static_cast<std::size_t>(i)];
    std::int16_t* pick_row = ws.pick.data() + static_cast<std::size_t>(i) * row;
    for (int j = 0; j <= m; ++j) {
      double best = kInf;
      std::int16_t best_pick = kUnreachable;
      if (ws.dp[static_cast<std::size_t>(j)] < kInf && shelf2 < kInf) {
        best = ws.dp[static_cast<std::size_t>(j)] + shelf2;
        best_pick = kShelf2;
      }
      for (std::size_t o = begin; o < end; ++o) {
        const int cost = ws.opt_procs[o];
        if (cost > j) break;  // options sorted by increasing procs
        const double base = ws.dp[static_cast<std::size_t>(j - cost)];
        if (base >= kInf) continue;
        const double candidate = base + ws.opt_work[o];
        if (candidate < best) {
          best = candidate;
          best_pick = static_cast<std::int16_t>(o - begin);
        }
      }
      ws.next[static_cast<std::size_t>(j)] = best;
      pick_row[static_cast<std::size_t>(j)] = best_pick;
    }
    ws.dp.swap(ws.next);
  }

  finish_from_dp(lambda, n, m, ws, out);
}

}  // namespace

DualTestResult dual_test(const Instance& instance, double lambda) {
  DualTestWorkspace ws;
  DualTestResult result;
  dual_test_vec_impl(instance, lambda, nullptr, ws, result);
  return result;
}

DualTestResult dual_test(const Instance& instance, double lambda,
                         const InstanceAllotments& tables) {
  DualTestWorkspace ws;
  DualTestResult result;
  dual_test_vec_impl(instance, lambda, &tables, ws, result);
  return result;
}

void dual_test_into(const Instance& instance, double lambda,
                    const InstanceAllotments& tables, DualTestWorkspace& ws,
                    DualTestResult& out) {
  dual_test_vec_impl(instance, lambda, &tables, ws, out);
}

DualTestResult dual_test_reference(const Instance& instance, double lambda) {
  DualTestWorkspace ws;
  DualTestResult result;
  dual_test_reference_impl(instance, lambda, nullptr, ws, result);
  return result;
}

DualTestResult dual_test_reference(const Instance& instance, double lambda,
                                   const InstanceAllotments& tables) {
  DualTestWorkspace ws;
  DualTestResult result;
  dual_test_reference_impl(instance, lambda, &tables, ws, result);
  return result;
}

}  // namespace moldsched
