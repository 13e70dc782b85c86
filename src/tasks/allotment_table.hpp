/// \file allotment_table.hpp
/// Binary-searchable per-task allotment tables. The dual-approximation
/// bisection and the DEMT batch loop both keep asking the same two
/// questions for varying deadlines — "smallest allowed k with
/// time(k) <= d" (the canonical allotment) and "work-minimising allowed k
/// with time(k) <= d" — and the task's answers depend only on its fixed
/// time vector. Ordering the allotments once by execution time and
/// attaching prefix argmins turns both queries into O(log max_procs)
/// lookups, replacing the O(max_procs) scans that used to run inside every
/// dual_test call and every batch construction.
///
/// Building InstanceAllotments costs O(max_procs) per time-monotone task
/// (every generated task is one): its (time asc, k asc) order is k
/// descending with runs of equal times kept in ascending k, written by one
/// downward walk. Only tasks whose time rises somewhere pay an
/// O(max_procs log max_procs) sort. The same pass yields each task's
/// fastest time and cheapest work, so the dual-approximation search and the
/// DEMT time grid read them instead of rescanning the instance.
///
/// The tables reproduce MoldableTask::canonical_allotment and
/// ::min_work_allotment bit-for-bit (same comparisons, same tie-breaks), so
/// swapping them in cannot change any schedule.
///
/// Two representations live here:
///  - AllotmentTable: the original one-vector-per-task form. Kept as the
///    scalar reference the differential suite (test_demt_kernel) checks the
///    flat form against; not used on the serving path anymore.
///  - InstanceAllotments: all tasks' rows packed into contiguous parallel
///    arrays (structure-of-arrays) with a pooled build() so a warm
///    DemtWorkspace rebuilds the tables for a new Instance without touching
///    the allocator. table(t) hands out a lightweight View over the rows.

#pragma once

#include <cstdint>
#include <vector>

#include "tasks/instance.hpp"
#include "tasks/moldable_task.hpp"

namespace moldsched {

/// Scalar reference form: one task, its own vectors. Construction and both
/// queries define the semantics the SoA form must reproduce bit-for-bit.
class AllotmentTable {
 public:
  AllotmentTable() = default;
  explicit AllotmentTable(const MoldableTask& task);

  /// Smallest allowed k with time(k) <= deadline, or 0 when none exists.
  /// Matches MoldableTask::canonical_allotment exactly.
  [[nodiscard]] int canonical(double deadline) const noexcept;

  /// Work-minimising allowed k with time(k) <= deadline (smallest such k on
  /// work ties), or 0. Matches MoldableTask::min_work_allotment exactly.
  [[nodiscard]] int min_work(double deadline) const noexcept;

  /// True when the task is strictly time- and work-monotone (no tolerance):
  /// time(k) non-increasing and work(k) non-decreasing over the allowed
  /// range. For such tasks the shelf-1 Pareto set of the dual test
  /// collapses to the single canonical allotment.
  [[nodiscard]] bool strictly_monotone() const noexcept { return monotone_; }

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(sorted_times_.size());
  }
  /// Row access for property tests: the i-th (time asc, k asc) entry.
  [[nodiscard]] double time_at(int i) const noexcept {
    return sorted_times_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int min_k_at(int i) const noexcept {
    return prefix_min_k_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int min_work_k_at(int i) const noexcept {
    return prefix_min_work_k_[static_cast<std::size_t>(i)];
  }

 private:
  /// Allowed allotments sorted by (time asc, k asc); parallel prefix
  /// argmins answer both queries after an upper_bound on the time.
  std::vector<double> sorted_times_;
  std::vector<int> prefix_min_k_;
  std::vector<int> prefix_min_work_k_;
  bool monotone_ = false;
};

/// All tasks' tables, built once per Instance traversal (one DEMT call, one
/// dual-approximation search) and shared by every stage. Rows for all tasks
/// live in four flat parallel arrays indexed through begin_[task]; build()
/// reuses the buffers, so a pooled InstanceAllotments allocates only until
/// its capacity high-water mark is reached.
class InstanceAllotments {
 public:
  /// Non-owning window onto one task's rows. canonical()/min_work() are the
  /// same upper_bound + prefix-argmin lookups as AllotmentTable.
  class View {
   public:
    View(const double* times, const int* min_k, const int* min_work_k,
         int count, bool monotone) noexcept
        : times_(times),
          min_k_(min_k),
          min_work_k_(min_work_k),
          count_(count),
          monotone_(monotone) {}

    [[nodiscard]] int canonical(double deadline) const noexcept;
    [[nodiscard]] int min_work(double deadline) const noexcept;
    [[nodiscard]] bool strictly_monotone() const noexcept { return monotone_; }

    [[nodiscard]] int size() const noexcept { return count_; }
    [[nodiscard]] double time_at(int i) const noexcept { return times_[i]; }
    [[nodiscard]] int min_k_at(int i) const noexcept { return min_k_[i]; }
    [[nodiscard]] int min_work_k_at(int i) const noexcept {
      return min_work_k_[i];
    }

   private:
    const double* times_;
    const int* min_k_;
    const int* min_work_k_;
    int count_;
    bool monotone_;
  };

  InstanceAllotments() = default;
  explicit InstanceAllotments(const Instance& instance) { build(instance); }

  /// Rebuild all rows for `instance`, reusing the flat buffers. Allocation
  /// free once the buffers have grown to the workload's high-water mark.
  /// O(total allotments) when every task is time-monotone.
  void build(const Instance& instance);

  [[nodiscard]] View table(int task) const noexcept {
    const auto t = static_cast<std::size_t>(task);
    const int b = begin_[t];
    return View(times_.data() + b, min_k_.data() + b, min_work_k_.data() + b,
                begin_[t + 1] - b, monotone_[t] != 0);
  }
  [[nodiscard]] int num_tasks() const noexcept {
    return static_cast<int>(monotone_.size());
  }

  /// MoldableTask::min_time() and ::min_work() of `task`, bit for bit.
  [[nodiscard]] double min_time(int task) const noexcept {
    return min_time_[static_cast<std::size_t>(task)];
  }
  [[nodiscard]] double min_work(int task) const noexcept {
    return min_work_[static_cast<std::size_t>(task)];
  }
  /// Instance::tmin() and ::total_min_work() of the built instance, bit for
  /// bit (same task order); tmin() is +inf for an empty instance.
  [[nodiscard]] double tmin() const noexcept { return tmin_; }
  [[nodiscard]] double total_min_work() const noexcept {
    return total_min_work_;
  }

 private:
  std::vector<int> begin_;         ///< row offsets, size num_tasks + 1
  std::vector<double> times_;      ///< all tasks' sorted times, concatenated
  std::vector<int> min_k_;         ///< prefix argmin-k per row
  std::vector<int> min_work_k_;    ///< prefix min-work-k per row
  std::vector<std::uint8_t> monotone_;
  std::vector<double> min_time_;   ///< per task: fastest allowed time
  std::vector<double> min_work_;   ///< per task: cheapest allowed work
  double tmin_ = 0.0;
  double total_min_work_ = 0.0;
  std::vector<int> order_;         ///< build scratch: sort fallback keys
};

}  // namespace moldsched
