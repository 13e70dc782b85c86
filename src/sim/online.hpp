/// \file online.hpp
/// On-line scheduling by batches (§2.2 and the framework of Shmoys, Wein &
/// Williamson, the paper's reference [21]): jobs arrive over time; whenever
/// the machine goes idle, every job released so far is scheduled as one
/// off-line batch with a pluggable off-line algorithm. If the off-line
/// algorithm is rho-competitive for Cmax, the batched on-line schedule is
/// 2*rho-competitive.
///
/// Node reservations (paper §5 "reservation of nodes which reduces the size
/// of the cluster") shrink the set of processors a batch may use: a batch
/// starting at time s avoids every processor whose reservation window
/// intersects the batch's execution interval (computed to a fixpoint).
///
/// Two paths share one core:
///
/// * the **flat path** (`online_batch_schedule_into`) runs every batch
///   decision through a SchedulingPolicy (core/policy.hpp) inside a
///   caller-owned OnlineWorkspace and writes a FlatOnlineResult — no
///   Schedule object is allocated per batch decision, which is what the
///   engine's server loop and the throughput bench call thousands of times;
/// * the **object path** (`online_batch_schedule`) keeps the original
///   Schedule-based API (a Schedule-returning OfflineScheduler) as a thin
///   wrapper over the flat core, and `online_batch_schedule_reference`
///   keeps the pre-refactor Schedule-per-batch implementation (modulo the
///   shared reservation fixpoint-budget fix) as the bit-identical
///   regression oracle.

#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "sched/flat_schedule.hpp"
#include "sched/schedule.hpp"
#include "tasks/instance.hpp"
#include "tasks/moldable_task.hpp"

namespace moldsched {

struct OnlineJob {
  MoldableTask task;
  double release = 0.0;
};

/// Processor `proc` is unavailable during [start, finish).
struct NodeReservation {
  int proc = 0;
  double start = 0.0;
  double finish = 0.0;
};

/// Off-line scheduler for the object path: full instance in, complete
/// schedule out.
using OfflineScheduler = std::function<Schedule(const Instance&)>;

/// Release-time comparison slack: jobs released within this of the batch
/// open instant join the batch. Shared by the off-line loop and the
/// streaming core (sim/stream.hpp), whose watermark test must use the
/// exact same tolerance to stay bit-identical.
inline constexpr double kReleaseTieEps = 1e-12;

/// Reusable state for repeated on-line simulations (one per engine strand).
/// Every buffer is cleared (capacity kept) per run; after warm-up the
/// simulator machinery performs no heap allocation; what remains is
/// whatever the per-batch policy itself allocates.
struct OnlineWorkspace {
  FlatPlacements batch;              ///< off-line output, batch-local ids
  std::vector<int> order;            ///< jobs in release order
  std::vector<int> batch_jobs;       ///< job ids of the open batch
  std::vector<int> free_procs;       ///< unblocked processor ids
  std::vector<std::uint8_t> blocked;      ///< per-processor block flags
  std::vector<std::uint8_t> new_blocked;  ///< fixpoint scratch
  /// Pooled reduced-machine batch instance, re-filled per batch decision
  /// through Instance::reset/add_task_truncated — the flat path performs
  /// no heap allocation at all once the pool is warm.
  Instance batch_instance{1};
};

/// Flat-path result; buffers keep capacity across runs when reused.
struct FlatOnlineResult {
  FlatPlacements schedule;          ///< global placements, indexed like jobs
  std::vector<double> completion;   ///< per job
  std::vector<double> flow;         ///< completion - release
  double cmax = 0.0;
  double weighted_completion_sum = 0.0;
  double weighted_flow_sum = 0.0;
  int num_batches = 0;
  std::vector<double> batch_starts;

  /// Clear to `num_jobs` unassigned jobs and zeroed metrics.
  void reset(int num_jobs);
};

struct OnlineResult {
  /// Global-time placements, indexed like `jobs`.
  Schedule schedule;
  std::vector<double> completion;   ///< per job
  std::vector<double> flow;         ///< completion - release
  double cmax = 0.0;
  double weighted_completion_sum = 0.0;
  double weighted_flow_sum = 0.0;
  int num_batches = 0;
  std::vector<double> batch_starts;

  explicit OnlineResult(int m, int n) : schedule(m, n) {}
};

/// Mark every processor whose reservation intersects [start, finish) in a
/// reusable flag buffer (resized/zeroed to m). Shared by the off-line
/// loop's reservation fixpoint and the streaming core's divisible drain —
/// one definition so the two paths cannot drift.
void online_blocked_procs_into(
    int m, const std::vector<NodeReservation>& reservations, double start,
    double finish, std::vector<std::uint8_t>& blocked);

/// Reservation fixpoint shared by the batch decision (`online_decide_batch`)
/// and the streaming divisible drain (sim/stream.cpp): starting from the
/// caller-initialised `ws.blocked` flags, repeatedly build `ws.free_procs`,
/// ask `propose(avail)` for the tentative window length on that free set
/// (the batch path schedules the batch into `ws.batch` and returns its
/// cmax; the drain sizes a divisible-only window), and grow the blocked set
/// by every reservation intersecting [now, now + window) until stable.
/// When the machine is fully reserved at `now`, `now` jumps past the
/// earliest blocking reservation end and the window rebuilds. Returns the
/// settled window; afterwards `ws.free_procs` holds the settled free set
/// and whatever `propose` computed last is valid. The iteration budget is
/// unreachable by the monotone-growth argument (between jumps the blocked
/// set only grows, and every jump passes a distinct reservation end), so
/// exhausting it throws std::logic_error — messages prefixed `who` —
/// rather than letting a caller use a stale proposal.
template <typename ProposeWindow>
double reservation_fixpoint(int m,
                            const std::vector<NodeReservation>& reservations,
                            OnlineWorkspace& ws, double& now,
                            const ProposeWindow& propose, const char* who) {
  const int max_iterations =
      (static_cast<int>(reservations.size()) + 1) * (m + 2);
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    ws.free_procs.clear();
    for (int p = 0; p < m; ++p) {
      if (!ws.blocked[static_cast<std::size_t>(p)]) {
        ws.free_procs.push_back(p);
      }
    }
    const int avail = static_cast<int>(ws.free_procs.size());
    if (avail == 0) {
      // Fully reserved at this instant: jump past the earliest blocking
      // reservation end and rebuild the window.
      double jump = std::numeric_limits<double>::infinity();
      for (const auto& r : reservations) {
        if (r.finish > now) jump = std::min(jump, r.finish);
      }
      if (!std::isfinite(jump)) {
        throw std::logic_error(std::string(who) +
                               ": machine permanently fully reserved");
      }
      now = jump;
      online_blocked_procs_into(m, reservations, now, now, ws.blocked);
      continue;
    }
    const double window = propose(avail);
    online_blocked_procs_into(m, reservations, now, now + window,
                              ws.new_blocked);
    if (ws.new_blocked == ws.blocked) return window;  // fixpoint
    for (std::size_t p = 0; p < ws.new_blocked.size(); ++p) {
      if (ws.new_blocked[p]) ws.blocked[p] = 1;  // monotone => converges
    }
  }
  throw std::logic_error(std::string(who) +
                         ": reservation fixpoint failed to converge");
}

/// Advanced hook shared by the flat off-line loop and the streaming core
/// (sim/stream.hpp): decide ONE batch of the framework. On entry
/// `ws.batch_jobs` names the batch's jobs (indices into `jobs`, all with
/// release <= now + kReleaseTieEps) and `now` is the machine-idle instant
/// the batch opens at; `now` may move forward when the machine is fully
/// reserved at that instant. The call runs the reservation fixpoint, the
/// policy, and the lift into global time/processor ids, appends
/// placements, metrics and batch bookkeeping to `out` (which must already
/// have entries for every job id in the batch), and advances `now` to the
/// batch's completion. Afterwards `ws.batch` holds the batch-local
/// placements and `ws.free_procs` the processors the batch was allowed to
/// use — exactly what the divisible filler consumes. Throws like
/// online_batch_schedule_into.
void online_decide_batch(int m, const OnlineJob* jobs,
                         const std::vector<NodeReservation>& reservations,
                         const SchedulingPolicy& policy,
                         PolicyWorkspace& policy_ws, OnlineWorkspace& ws,
                         double& now, FlatOnlineResult& out);

/// The fixpoint half of online_decide_batch: run the reservation fixpoint
/// and the policy for the batch named by `ws.batch_jobs` at clock
/// `now` (which may jump forward when the machine is fully reserved),
/// leaving `ws.batch` / `ws.free_procs` settled exactly as
/// online_decide_batch would just before its lift — but without touching
/// any result. The streaming core (sim/stream.hpp) stages speculative
/// frontier decisions through this entry point.
void online_settle_batch(int m, const OnlineJob* jobs,
                         const std::vector<NodeReservation>& reservations,
                         const SchedulingPolicy& policy,
                         PolicyWorkspace& policy_ws, OnlineWorkspace& ws,
                         double& now);

/// The lift half of online_decide_batch: write the settled batch-local
/// placements `batch` (whose local processor ids index `free_procs`) for
/// the jobs named by `batch_jobs` into `out` as global rows at clock
/// `clock`, appending the batch bookkeeping (batch_starts, num_batches,
/// metrics). Identical arithmetic to the lift inside online_decide_batch,
/// so a speculative commit that replays a settled fixpoint through this
/// function is bit-identical to deciding the batch fresh.
void online_lift_batch(const OnlineJob* jobs, const int* batch_jobs,
                       std::size_t count, const FlatPlacements& batch,
                       const std::vector<int>& free_procs, double clock,
                       FlatOnlineResult& out);

/// Flat core of the batch framework: every batch decision runs
/// `policy.schedule_into` inside `policy_ws` (one workspace per strand,
/// from policy.make_workspace()); the simulator runs inside `ws` and writes
/// into `out`, adding no per-call allocation beyond the policy's own.
/// Throws std::invalid_argument on an empty job list, negative releases, or
/// a job needing more processors than a batch can ever obtain (m minus
/// permanently reserved).
void online_batch_schedule_into(
    int m, const std::vector<OnlineJob>& jobs, const SchedulingPolicy& policy,
    PolicyWorkspace& policy_ws,
    const std::vector<NodeReservation>& reservations, OnlineWorkspace& ws,
    FlatOnlineResult& out);

/// Run the batch framework (object path; wrapper over the flat core with
/// identical results). Throws as online_batch_schedule_into.
[[nodiscard]] OnlineResult online_batch_schedule(
    int m, const std::vector<OnlineJob>& jobs, const OfflineScheduler& offline,
    const std::vector<NodeReservation>& reservations = {});

/// Pre-refactor object-path implementation (allocates a Schedule per batch
/// decision), kept as the independent regression oracle for the flat core
/// (tests assert bit-identical results on every input class).
[[nodiscard]] OnlineResult online_batch_schedule_reference(
    int m, const std::vector<OnlineJob>& jobs, const OfflineScheduler& offline,
    const std::vector<NodeReservation>& reservations = {});

}  // namespace moldsched
