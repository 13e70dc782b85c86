#include "sim/online.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace moldsched {

namespace {

/// Shared input validation of both paths (identical checks and messages).
void check_inputs(int m, const std::vector<OnlineJob>& jobs,
                  const std::vector<NodeReservation>& reservations) {
  if (m < 1) throw std::invalid_argument("online_batch_schedule: m < 1");
  if (jobs.empty()) {
    throw std::invalid_argument("online_batch_schedule: no jobs");
  }
  for (const auto& r : reservations) {
    if (r.proc < 0 || r.proc >= m || !(r.finish > r.start)) {
      throw std::invalid_argument("online_batch_schedule: bad reservation");
    }
  }
  for (const auto& job : jobs) {
    if (job.release < 0.0) {
      throw std::invalid_argument("online_batch_schedule: negative release");
    }
  }
}

/// Build the reduced-machine batch instance for the jobs of the open batch
/// (time vectors truncated to the reduced width). Reference path only: the
/// flat path re-fills the pooled ws.batch_instance instead.
Instance build_batch_instance(const std::vector<OnlineJob>& jobs,
                              const std::vector<int>& batch_jobs, int avail) {
  Instance batch_instance(avail);
  for (int job_id : batch_jobs) {
    const MoldableTask& task = jobs[static_cast<std::size_t>(job_id)].task;
    if (task.min_procs() > avail) {
      throw std::invalid_argument(
          "online_batch_schedule: job cannot fit on available "
          "processors");
    }
    std::vector<double> times(task.times().begin(),
                              task.times().begin() +
                                  std::min(task.max_procs(), avail));
    batch_instance.add_task(
        MoldableTask(std::move(times), task.weight(), task.min_procs()));
  }
  return batch_instance;
}

/// Pooled twin of build_batch_instance: identical values, zero heap
/// allocation once the instance's shell pool is warm.
void rebuild_batch_instance(const OnlineJob* jobs,
                            const std::vector<int>& batch_jobs, int avail,
                            Instance& batch_instance) {
  batch_instance.reset(avail);
  for (int job_id : batch_jobs) {
    const MoldableTask& task = jobs[static_cast<std::size_t>(job_id)].task;
    if (task.min_procs() > avail) {
      throw std::invalid_argument(
          "online_batch_schedule: job cannot fit on available "
          "processors");
    }
    batch_instance.add_task_truncated(task, avail);
  }
}

/// Original (pre-refactor) helper of the reference path.
std::vector<bool> blocked_procs(int m,
                                const std::vector<NodeReservation>& reservations,
                                double start, double finish) {
  std::vector<bool> blocked(static_cast<std::size_t>(m), false);
  for (const auto& r : reservations) {
    if (r.start < finish && r.finish > start) {
      blocked[static_cast<std::size_t>(r.proc)] = true;
    }
  }
  return blocked;
}

/// The object path's Schedule-returning scheduler as a policy, so it runs
/// through the flat core: the Schedule it allocates is copied verbatim,
/// which keeps results bit-identical to the object path.
class OfflineSchedulerPolicy final : public SchedulingPolicy {
 public:
  explicit OfflineSchedulerPolicy(const OfflineScheduler& offline)
      : offline_(offline) {}
  [[nodiscard]] const char* name() const noexcept override {
    return "offline";
  }
  [[nodiscard]] std::unique_ptr<PolicyWorkspace> make_workspace()
      const override {
    return std::make_unique<PolicyWorkspace>();
  }
  void schedule_into(const Instance& batch, PolicyWorkspace& /*ws*/,
                     FlatPlacements& out) const override {
    out.assign_from(offline_(batch));
  }

 private:
  const OfflineScheduler& offline_;
};

}  // namespace

void FlatOnlineResult::reset(int num_jobs) {
  schedule.reset(num_jobs);
  completion.assign(static_cast<std::size_t>(num_jobs), 0.0);
  flow.assign(static_cast<std::size_t>(num_jobs), 0.0);
  cmax = 0.0;
  weighted_completion_sum = 0.0;
  weighted_flow_sum = 0.0;
  num_batches = 0;
  batch_starts.clear();
}

void online_blocked_procs_into(
    int m, const std::vector<NodeReservation>& reservations, double start,
    double finish, std::vector<std::uint8_t>& blocked) {
  blocked.assign(static_cast<std::size_t>(m), 0);
  for (const auto& r : reservations) {
    if (r.start < finish && r.finish > start) {
      blocked[static_cast<std::size_t>(r.proc)] = 1;
    }
  }
}

void online_settle_batch(int m, const OnlineJob* jobs,
                         const std::vector<NodeReservation>& reservations,
                         const SchedulingPolicy& policy,
                         PolicyWorkspace& policy_ws, OnlineWorkspace& ws,
                         double& now) {
  // Determine the available processors against reservations: start from
  // "everything free", schedule, check which reservations the batch
  // overlaps, remove those processors and retry until stable — the shared
  // reservation_fixpoint loop, proposing the batch's own makespan as the
  // window. On return ws.batch holds the settled batch-local placements
  // and ws.free_procs the processors the batch may use.
  ws.blocked.assign(static_cast<std::size_t>(m), 0);
  (void)reservation_fixpoint(
      m, reservations, ws, now,
      [&](int avail) {
        rebuild_batch_instance(jobs, ws.batch_jobs, avail, ws.batch_instance);
        policy.schedule_into(ws.batch_instance, policy_ws, ws.batch);
        return ws.batch.cmax();
      },
      "online_batch_schedule");
}

void online_lift_batch(const OnlineJob* jobs, const int* batch_jobs,
                       std::size_t count, const FlatPlacements& batch,
                       const std::vector<int>& free_procs, double clock,
                       FlatOnlineResult& out) {
  // Lift the batch placements into global time / global processor ids.
  for (std::size_t b = 0; b < count; ++b) {
    const int job_id = batch_jobs[b];
    const auto job = static_cast<std::size_t>(job_id);
    out.schedule.start[job] = clock + batch.start[b];
    out.schedule.duration[job] = batch.duration[b];
    out.schedule.proc_begin[job] =
        static_cast<int>(out.schedule.proc_ids.size());
    out.schedule.proc_count[job] = batch.proc_count[b];
    const auto begin = static_cast<std::size_t>(batch.proc_begin[b]);
    const auto pcount = static_cast<std::size_t>(batch.proc_count[b]);
    for (std::size_t p = begin; p < begin + pcount; ++p) {
      out.schedule.proc_ids.push_back(
          free_procs[static_cast<std::size_t>(batch.proc_ids[p])]);
    }
    const double completion = clock + (batch.start[b] + batch.duration[b]);
    out.completion[job] = completion;
    out.flow[job] = completion - jobs[job].release;
    out.cmax = std::max(out.cmax, completion);
    const double w = jobs[job].task.weight();
    out.weighted_completion_sum += w * completion;
    out.weighted_flow_sum += w * out.flow[job];
  }
  out.batch_starts.push_back(clock);
  ++out.num_batches;
}

void online_decide_batch(int m, const OnlineJob* jobs,
                         const std::vector<NodeReservation>& reservations,
                         const SchedulingPolicy& policy,
                         PolicyWorkspace& policy_ws, OnlineWorkspace& ws,
                         double& now, FlatOnlineResult& out) {
  online_settle_batch(m, jobs, reservations, policy, policy_ws, ws, now);
  online_lift_batch(jobs, ws.batch_jobs.data(), ws.batch_jobs.size(), ws.batch,
                    ws.free_procs, now, out);
  now += ws.batch.cmax();
}

void online_batch_schedule_into(
    int m, const std::vector<OnlineJob>& jobs, const SchedulingPolicy& policy,
    PolicyWorkspace& policy_ws,
    const std::vector<NodeReservation>& reservations, OnlineWorkspace& ws,
    FlatOnlineResult& out) {
  check_inputs(m, jobs, reservations);
  const int n = static_cast<int>(jobs.size());

  // Jobs in release order; arrival index breaks ties so simultaneous
  // releases keep a well-defined batch order (the same order a stream
  // feeding them one by one produces).
  ws.order.resize(static_cast<std::size_t>(n));
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::sort(ws.order.begin(), ws.order.end(), [&](int a, int b) {
    const double ra = jobs[static_cast<std::size_t>(a)].release;
    const double rb = jobs[static_cast<std::size_t>(b)].release;
    if (ra != rb) return ra < rb;
    return a < b;
  });

  out.reset(n);

  std::size_t next = 0;
  double now = 0.0;
  while (next < ws.order.size()) {
    // The batch opens when the machine is idle and at least one job has
    // arrived.
    now = std::max(now, jobs[static_cast<std::size_t>(ws.order[next])].release);
    ws.batch_jobs.clear();
    while (next < ws.order.size() &&
           jobs[static_cast<std::size_t>(ws.order[next])].release <=
               now + kReleaseTieEps) {
      ws.batch_jobs.push_back(ws.order[next]);
      ++next;
    }
    online_decide_batch(m, jobs.data(), reservations, policy, policy_ws, ws,
                        now, out);
  }
}

OnlineResult online_batch_schedule(
    int m, const std::vector<OnlineJob>& jobs, const OfflineScheduler& offline,
    const std::vector<NodeReservation>& reservations) {
  const OfflineSchedulerPolicy policy(offline);
  PolicyWorkspace policy_ws;
  OnlineWorkspace ws;
  FlatOnlineResult flat;
  online_batch_schedule_into(m, jobs, policy, policy_ws, reservations, ws,
                             flat);
  OnlineResult result(m, static_cast<int>(jobs.size()));
  result.schedule = flat.schedule.to_schedule(m);
  result.completion = std::move(flat.completion);
  result.flow = std::move(flat.flow);
  result.cmax = flat.cmax;
  result.weighted_completion_sum = flat.weighted_completion_sum;
  result.weighted_flow_sum = flat.weighted_flow_sum;
  result.num_batches = flat.num_batches;
  result.batch_starts = std::move(flat.batch_starts);
  return result;
}

OnlineResult online_batch_schedule_reference(
    int m, const std::vector<OnlineJob>& jobs, const OfflineScheduler& offline,
    const std::vector<NodeReservation>& reservations) {
  check_inputs(m, jobs, reservations);
  const int n = static_cast<int>(jobs.size());

  // Jobs in release order (arrival-index tie-break, matching the flat
  // core so the two paths stay bit-identical on simultaneous releases).
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ra = jobs[static_cast<std::size_t>(a)].release;
    const double rb = jobs[static_cast<std::size_t>(b)].release;
    if (ra != rb) return ra < rb;
    return a < b;
  });

  OnlineResult result(m, n);
  result.completion.assign(static_cast<std::size_t>(n), 0.0);
  result.flow.assign(static_cast<std::size_t>(n), 0.0);

  std::size_t next = 0;
  double now = 0.0;
  while (next < order.size()) {
    // The batch opens when the machine is idle and at least one job has
    // arrived.
    now = std::max(now, jobs[static_cast<std::size_t>(order[next])].release);
    std::vector<int> batch_jobs;
    while (next < order.size() &&
           jobs[static_cast<std::size_t>(order[next])].release <= now + 1e-12) {
      batch_jobs.push_back(order[next]);
      ++next;
    }

    // Determine the available processors against reservations: start from
    // "everything free", schedule, check which reservations the batch
    // overlaps, remove those processors and retry until stable.
    std::vector<bool> blocked(static_cast<std::size_t>(m), false);
    Schedule batch_schedule(1, 0);
    std::vector<int> free_procs;
    // Same iteration budget as the flat core (the two paths must stay
    // bit-identical, including on inputs that exercise the budget).
    const int max_iterations =
        (static_cast<int>(reservations.size()) + 1) * (m + 2);
    bool settled = false;
    for (int iteration = 0; iteration < max_iterations; ++iteration) {
      free_procs.clear();
      for (int p = 0; p < m; ++p) {
        if (!blocked[static_cast<std::size_t>(p)]) free_procs.push_back(p);
      }
      const int avail = static_cast<int>(free_procs.size());
      if (avail == 0) {
        // Fully reserved at this instant: jump past the earliest blocking
        // reservation end and rebuild the batch window.
        double jump = std::numeric_limits<double>::infinity();
        for (const auto& r : reservations) {
          if (r.finish > now) jump = std::min(jump, r.finish);
        }
        if (!std::isfinite(jump)) {
          throw std::logic_error(
              "online_batch_schedule: machine permanently fully reserved");
        }
        now = jump;
        blocked = blocked_procs(m, reservations, now, now);
        continue;
      }
      // Build the batch instance on the reduced machine.
      const Instance batch_instance =
          build_batch_instance(jobs, batch_jobs, avail);
      batch_schedule = offline(batch_instance);
      const double horizon = now + batch_schedule.cmax();
      auto new_blocked = blocked_procs(m, reservations, now, horizon);
      if (new_blocked == blocked) {  // fixpoint: no new conflicts
        settled = true;
        break;
      }
      for (std::size_t p = 0; p < new_blocked.size(); ++p) {
        if (new_blocked[p]) blocked[p] = true;  // monotone growth => converges
      }
    }
    if (!settled) {
      throw std::logic_error(
          "online_batch_schedule: reservation fixpoint failed to converge");
    }

    // Lift the batch schedule into global time / global processor ids.
    for (std::size_t b = 0; b < batch_jobs.size(); ++b) {
      const int job_id = batch_jobs[b];
      const Placement& p = batch_schedule.placement(static_cast<int>(b));
      std::vector<int> procs;
      procs.reserve(p.procs.size());
      for (int local : p.procs) {
        procs.push_back(free_procs[static_cast<std::size_t>(local)]);
      }
      result.schedule.place(job_id, now + p.start, p.duration, std::move(procs));
      const double completion = now + p.finish();
      result.completion[static_cast<std::size_t>(job_id)] = completion;
      result.flow[static_cast<std::size_t>(job_id)] =
          completion - jobs[static_cast<std::size_t>(job_id)].release;
      result.cmax = std::max(result.cmax, completion);
      const double w = jobs[static_cast<std::size_t>(job_id)].task.weight();
      result.weighted_completion_sum += w * completion;
      result.weighted_flow_sum +=
          w * result.flow[static_cast<std::size_t>(job_id)];
    }
    result.batch_starts.push_back(now);
    ++result.num_batches;
    now += batch_schedule.cmax();
  }
  return result;
}

}  // namespace moldsched
