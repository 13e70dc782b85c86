/// \file dual_test.hpp
/// Two-shelf dual-approximation test for the moldable makespan problem
/// (Mounié–Rapine–Trystram; the paper's references [7]/[17]).
///
/// Given a makespan guess `lambda`, every task is assigned its canonical
/// allotment for either shelf 1 (deadline lambda) or shelf 2 (deadline
/// lambda/2). A knapsack chooses the partition minimising total work under
/// the constraint that shelf-1 allotments sum to at most m processors
/// (tasks that cannot run within lambda/2 on any allotment are forced to
/// shelf 1). The guess is REJECTED — proving OPT > lambda — when
///
///  * some task cannot run within lambda at all, or
///  * shelf-1 demand cannot fit in m processors, or
///  * the minimised total work exceeds m * lambda.
///
/// Rejection is a certificate (any schedule of length lambda induces a
/// partition satisfying all three conditions), so the largest rejected
/// lambda is a valid makespan lower bound. Acceptance feeds the batch sizes
/// of the bi-criteria algorithm and the allotments of the List-Graham
/// baselines.

#pragma once

#include <cstdint>
#include <vector>

#include "tasks/allotment_table.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

enum class Shelf { Large = 1, Small = 2 };

struct ShelfAssignment {
  Shelf shelf = Shelf::Large;
  int allotment = 0;  ///< processors; 0 = infeasible marker
};

struct DualTestResult {
  bool feasible = false;     ///< guess accepted (not refuted)
  double total_work = 0.0;   ///< minimised total work of the partition
  /// Per-task shelf and allotment; meaningful only when feasible.
  std::vector<ShelfAssignment> assignment;
};

/// Reusable buffers for repeated dual_test calls: the DP rows, the flat
/// (task x budget) pick matrix, and the per-task shelf choice pools all
/// keep their capacity across calls, so the bisection in estimate_cmax —
/// which runs dozens of tests per schedule — performs no heap allocation
/// after its first test at a given problem size. Reuse never changes
/// results: the workspace carries capacity, not state, between calls.
struct DualTestWorkspace {
  /// Shelf-1 Pareto options pooled across tasks: task i's options are
  /// opt_procs/opt_work[opt_begin[i] .. opt_begin[i+1]).
  std::vector<int> opt_procs;
  std::vector<double> opt_work;
  std::vector<int> opt_begin;
  std::vector<double> shelf2_work;  ///< per task; +inf when infeasible
  std::vector<int> shelf2_procs;    ///< per task
  std::vector<double> dp;           ///< DP row over the processor budget
  std::vector<double> next;         ///< DP row being built
  std::vector<std::int16_t> pick;   ///< n x (m+1) option picks, row-major
  /// Trial-partition buffer for estimate_cmax_into's accept/reject
  /// rotation; carries capacity only, never state, between calls.
  DualTestResult scratch;
};

/// Run the dual test for guess `lambda` (> 0).
[[nodiscard]] DualTestResult dual_test(const Instance& instance, double lambda);

/// Same test with precomputed allotment tables: canonical / min-work
/// lookups cost O(log max_procs) instead of O(max_procs), and for strictly
/// monotone tasks the shelf-1 Pareto set collapses to the single canonical
/// allotment without a scan. Produces bit-identical results to the
/// table-free overload — the bisection in estimate_cmax builds the tables
/// once and reuses them across all its calls.
[[nodiscard]] DualTestResult dual_test(const Instance& instance, double lambda,
                                       const InstanceAllotments& tables);

/// Allocation-free form: identical results to the overloads above, but the
/// test runs entirely inside `ws` and writes into `out` (whose assignment
/// buffer reuses its capacity). This is what estimate_cmax's bisection
/// calls per guess.
void dual_test_into(const Instance& instance, double lambda,
                    const InstanceAllotments& tables, DualTestWorkspace& ws,
                    DualTestResult& out);

/// Original scalar DP (budget-outer loop, per-cell option scan with early
/// break and conditional updates), retained as the bit-identity reference
/// for the vectorized row-sweep kernel behind dual_test/dual_test_into.
/// The table-free overload also uses the original O(max_procs) scan-based
/// allotment lookups, making it a reference for the SoA tables as well.
/// Allocates its own buffers; test/differential use only.
[[nodiscard]] DualTestResult dual_test_reference(const Instance& instance,
                                                 double lambda);
[[nodiscard]] DualTestResult dual_test_reference(
    const Instance& instance, double lambda, const InstanceAllotments& tables);

}  // namespace moldsched
