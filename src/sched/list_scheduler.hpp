/// \file list_scheduler.hpp
/// Event-driven Graham list scheduling for rigid-allotment jobs (the paper's
/// reference [11]): whenever processors become idle, the pending list is
/// scanned in order and every job that fits is started. Used by
///
/// * the Sequential and List-Graham baselines,
/// * DEMT's final compaction pass ("a list algorithm with the batch
///   ordering"), which re-chooses the processor sets,
/// * the online batch simulator (jobs carry release dates there).
///
/// Two entry points share one implementation: the Schedule-returning
/// `list_schedule` (validates its inputs, allocates the result), and the
/// allocation-free `list_schedule_into`, which runs entirely inside a
/// caller-owned ListPassWorkspace and writes flat placements — the form
/// DEMT's shuffle loop calls thousands of times per instance.
///
/// Per event the start loop resumes at the first unfinished job instead of
/// walking finished ones, picks processors from an idle bitset (cost in
/// idle processors visited plus m/64 words, not m), and looks for the next
/// release only while some job is still unreleased — never on DEMT's
/// passes, where every release is 0.

#pragma once

#include <cstdint>
#include <vector>

#include "sched/flat_schedule.hpp"
#include "sched/schedule.hpp"

namespace moldsched {

/// One entry of the priority list. `task` indexes the instance / schedule;
/// `nprocs` is the fixed allotment; `duration` its processing time.
struct ListJob {
  int task = -1;
  int nprocs = 1;
  double duration = 0.0;
  double release = 0.0;
};

/// Per-processor busy interval that pre-exists the scheduling pass (node
/// reservations in the online simulator).
struct BusyInterval {
  int proc = 0;
  double start = 0.0;
  double finish = 0.0;
};

struct ListScheduleOptions {
  /// Busy intervals the scheduler must avoid (default none).
  std::vector<BusyInterval> reservations;
};

/// Reusable buffers for repeated list passes. One workspace per thread;
/// every buffer is cleared (capacity kept) at the start of a pass, so after
/// the first pass at a given problem size no further heap allocation
/// happens. Fill `jobs` with the priority list, then call
/// `list_schedule_into`.
struct ListPassWorkspace {
  /// The priority list for the next pass (caller-filled).
  std::vector<ListJob> jobs;

  // -- internal scheduler state (sized by list_schedule_into) --
  /// Min-heap of finish events; entry >= 0 frees a job's processor range,
  /// entry == -1-p frees reservation-held processor p.
  struct FinishEvent {
    double time = 0.0;
    int entry = 0;
  };
  std::vector<FinishEvent> events;
  std::vector<std::uint64_t> idle;  ///< idle-processor bitset, 64 per word
  std::vector<std::uint8_t> done;  ///< per job
  std::vector<int> chosen;         ///< processor-picking scratch

  // Reservations, bucketed per processor so the "does a reservation begin
  // on p before this job would finish?" test is O(1) instead of a scan of
  // every pending reservation.
  struct Reservation {
    double start = 0.0, finish = 0.0;
    int proc = 0;
    int next_on_proc = -1;  ///< index of the next reservation on this proc
  };
  std::vector<Reservation> reservations;   ///< sorted by start
  std::vector<double> next_res_start;      ///< per proc; +inf when none
  std::vector<int> res_head;               ///< per-proc chain head scratch
};

/// Schedule `jobs` on m processors into a Schedule with `num_tasks` slots
/// (jobs may cover only a subset of tasks; the rest stay unassigned).
/// Throws std::invalid_argument when a job needs more than m processors,
/// has a non-positive duration, or duplicates a task.
[[nodiscard]] Schedule list_schedule(int m, int num_tasks,
                                     const std::vector<ListJob>& jobs,
                                     const ListScheduleOptions& options = {});

/// Allocation-free core: run the list pass for `ws.jobs` on m processors,
/// writing each job's placement into `out` at index `job.task` (entries in
/// [0, num_entries)). Skips input validation — callers own the invariants
/// (in-range tasks and allotments, positive durations, no duplicates).
/// `reservations` may be empty; intervals on one processor must not
/// overlap.
void list_schedule_into(int m, int num_entries,
                        const std::vector<BusyInterval>& reservations,
                        ListPassWorkspace& ws, FlatPlacements& out);

}  // namespace moldsched
