/// \file flat_schedule.hpp
/// Flat, cache-friendly placement storage for the scheduler hot path.
/// A Schedule keeps one heap-allocated processor vector per task, which is
/// what a candidate-evaluation loop must never do: evaluating a shuffle
/// candidate only needs starts, durations and weights, and the processor
/// sets can live in one shared pool. FlatPlacements is that view — plain
/// parallel arrays plus a processor-id pool into which entries point, so
/// repeated passes reuse the same capacity and the metrics (`cmax`,
/// `weighted_completion_sum`) are branch-light linear scans with no copies.
/// Only the winning candidate is converted into a real Schedule.

#pragma once

#include <vector>

#include "sched/schedule.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

/// Both schedule metrics from one fused scan (see
/// FlatPlacements::metrics).
struct FlatMetrics {
  double weighted_completion_sum = 0.0;
  double cmax = 0.0;
};

struct FlatPlacements {
  /// Per-entry placement; an entry with duration <= 0 is unassigned. The
  /// processor set of entry e is proc_ids[proc_begin[e] .. +proc_count[e]),
  /// always in ascending processor order. Ranges may be shared (every task
  /// of a merged stack aliases its item's range).
  std::vector<double> start;
  std::vector<double> duration;
  std::vector<int> proc_begin;
  std::vector<int> proc_count;
  std::vector<int> proc_ids;

  /// Clear to `num_entries` unassigned entries; keeps buffer capacity.
  void reset(int num_entries);

  /// Copy a Schedule into the flat form, reusing buffer capacity (the
  /// bridge that runs Schedule-based code on the flat path, e.g. the
  /// online simulator's Schedule-returning off-line schedulers).
  /// Unassigned tasks stay unassigned entries; every double is copied
  /// verbatim, so metrics computed on the flat copy are bit-identical to
  /// the Schedule's own.
  void assign_from(const Schedule& schedule);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(start.size());
  }
  [[nodiscard]] bool assigned(int e) const noexcept {
    return duration[static_cast<std::size_t>(e)] > 0.0;
  }
  [[nodiscard]] double finish(int e) const noexcept {
    return start[static_cast<std::size_t>(e)] +
           duration[static_cast<std::size_t>(e)];
  }

  /// Max finish over assigned entries (0 when none).
  [[nodiscard]] double cmax() const noexcept;

  /// Sum of weight * finish over all entries; every entry must be assigned
  /// and sizes must match (callers in the hot path guarantee both).
  [[nodiscard]] double weighted_completion_sum(
      const Instance& instance) const noexcept;

  /// Fused min/argmin-style scan: one entry-order pass accumulates the
  /// weighted completion sum and the running max finish together. Per
  /// element it performs the same adds and the same max comparisons in the
  /// same order as the two separate scans above, so both results are
  /// bit-identical to cmax() / weighted_completion_sum() — it just touches
  /// each cache line once. This is the candidate-metric scan of the DEMT
  /// shuffle loop.
  [[nodiscard]] FlatMetrics metrics(const Instance& instance) const noexcept;

  /// Deep-copy `other`, reusing this object's buffer capacity (vector
  /// copy-assign never reallocates when capacity suffices). The winner
  /// bookkeeping of demt_schedule_into uses this instead of to_schedule.
  void copy_from(const FlatPlacements& other);

  /// Materialise into a Schedule on m processors (assigned entries only).
  [[nodiscard]] Schedule to_schedule(int m) const;

  /// to_schedule into a pooled Schedule: `out` is reset to the right
  /// shape (per-task vector capacity kept) and refilled via place_sorted,
  /// so a steady keep_schedules serving loop that reuses its result
  /// objects stops allocating per batch. Same output as to_schedule.
  void materialize_into(int m, Schedule& out) const;
};

}  // namespace moldsched
