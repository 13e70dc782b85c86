#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace moldsched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTol = 1e-12;

struct EventLater {
  bool operator()(const ListPassWorkspace::FinishEvent& a,
                  const ListPassWorkspace::FinishEvent& b) const noexcept {
    return a.time > b.time;
  }
};

}  // namespace

void list_schedule_into(int m, int num_entries,
                        const std::vector<BusyInterval>& reservations,
                        ListPassWorkspace& ws, FlatPlacements& out) {
  out.reset(num_entries);
  ws.events.clear();
  // Idle processors as a bitset (bit p % 64 of word p / 64), so picking
  // the lowest-numbered idle processors visits only idle ones.
  const std::size_t words = (static_cast<std::size_t>(m) + 63) / 64;
  ws.idle.assign(words, ~std::uint64_t{0});
  if (m % 64 != 0) ws.idle[words - 1] = (std::uint64_t{1} << (m % 64)) - 1;
  const auto bit = [](std::size_t p) { return std::uint64_t{1} << (p % 64); };
  const auto set_idle = [&](std::size_t p) { ws.idle[p / 64] |= bit(p); };
  const auto set_busy = [&](std::size_t p) { ws.idle[p / 64] &= ~bit(p); };
  ws.done.assign(ws.jobs.size(), 0);
  int idle_count = m;

  // Reservations, sorted by start and bucketed per processor: chain
  // same-processor intervals so next_res_start[p] always holds the earliest
  // pending (not yet begun) reservation on p — the blocked-processor test
  // in the start loop then costs O(1) per processor instead of a scan over
  // every pending reservation.
  ws.reservations.clear();
  ws.next_res_start.assign(static_cast<std::size_t>(m), kInf);
  for (const auto& r : reservations) {
    if (r.proc < 0 || r.proc >= m || !(r.finish > r.start)) {
      throw std::invalid_argument("list_schedule: bad reservation");
    }
    ws.reservations.push_back({r.start, r.finish, r.proc, -1});
  }
  if (!ws.reservations.empty()) {
    std::sort(ws.reservations.begin(), ws.reservations.end(),
              [](const auto& a, const auto& b) { return a.start < b.start; });
    ws.res_head.assign(static_cast<std::size_t>(m), -1);
    for (std::size_t i = ws.reservations.size(); i-- > 0;) {
      auto& r = ws.reservations[i];
      const auto p = static_cast<std::size_t>(r.proc);
      r.next_on_proc = ws.res_head[p];
      ws.res_head[p] = static_cast<int>(i);
    }
    for (int p = 0; p < m; ++p) {
      const int head = ws.res_head[static_cast<std::size_t>(p)];
      if (head >= 0) {
        ws.next_res_start[static_cast<std::size_t>(p)] =
            ws.reservations[static_cast<std::size_t>(head)].start;
      }
    }
  }

  std::size_t next_res = 0;
  std::size_t remaining = ws.jobs.size();
  double now = 0.0;
  // Every job before `first` is done, so neither scan below revisits them.
  // Once `now` has passed the latest release no pending job can still be
  // unreleased, and the release scan is skipped (on DEMT's passes every
  // release is 0, so it never runs).
  std::size_t first = 0;
  double last_release = 0.0;
  for (const ListJob& job : ws.jobs) {
    last_release = std::max(last_release, job.release);
  }

  const auto push_event = [&](double time, int entry) {
    ws.events.push_back({time, entry});
    std::push_heap(ws.events.begin(), ws.events.end(), EventLater{});
  };

  const auto activate_reservations = [&](double t) {
    while (next_res < ws.reservations.size() &&
           ws.reservations[next_res].start <= t + kTol) {
      const auto& r = ws.reservations[next_res];
      const auto p = static_cast<std::size_t>(r.proc);
      // The processor must be idle when the reservation begins; the caller
      // (online simulator) aligns reservations with idle periods.
      if ((ws.idle[p / 64] & bit(p)) == 0) {
        throw std::logic_error(
            "list_schedule: reservation starts on a busy processor");
      }
      set_busy(p);
      --idle_count;
      push_event(r.finish, -1 - r.proc);
      ws.next_res_start[p] = r.next_on_proc >= 0
                                 ? ws.reservations[static_cast<std::size_t>(
                                                       r.next_on_proc)]
                                       .start
                                 : kInf;
      ++next_res;
    }
  };

  activate_reservations(now);

  while (remaining > 0) {
    // Start every pending job that fits, in list order.
    for (std::size_t j = first; j < ws.jobs.size() && idle_count > 0; ++j) {
      if (ws.done[j]) continue;
      const ListJob& job = ws.jobs[j];
      if (job.release > now + kTol) continue;
      if (job.nprocs > idle_count) continue;
      // Pick the lowest-numbered idle processors that are reservation-free
      // for [now, now + duration).
      ws.chosen.clear();
      const double finish = now + job.duration;
      const auto want = static_cast<std::size_t>(job.nprocs);
      for (std::size_t w = 0; w < words && ws.chosen.size() < want; ++w) {
        for (std::uint64_t b = ws.idle[w]; b != 0 && ws.chosen.size() < want;
             b &= b - 1) {
          const std::size_t p = w * 64 + std::countr_zero(b);
          if (ws.next_res_start[p] < finish - kTol) continue;  // blocked
          ws.chosen.push_back(static_cast<int>(p));
        }
      }
      if (ws.chosen.size() < want) continue;
      for (int p : ws.chosen) set_busy(static_cast<std::size_t>(p));
      idle_count -= job.nprocs;
      const auto e = static_cast<std::size_t>(job.task);
      out.start[e] = now;
      out.duration[e] = job.duration;
      out.proc_begin[e] = static_cast<int>(out.proc_ids.size());
      out.proc_count[e] = job.nprocs;
      out.proc_ids.insert(out.proc_ids.end(), ws.chosen.begin(),
                          ws.chosen.end());
      push_event(finish, job.task);
      ws.done[j] = 1;
      --remaining;
    }
    if (remaining == 0) break;
    while (ws.done[first]) ++first;

    // Advance time to the next finish event, job release, or reservation
    // start.
    double next_time = ws.events.empty() ? kInf : ws.events.front().time;
    if (last_release > now + kTol) {
      for (std::size_t j = first; j < ws.jobs.size(); ++j) {
        if (!ws.done[j] && ws.jobs[j].release > now + kTol) {
          next_time = std::min(next_time, ws.jobs[j].release);
        }
      }
    }
    if (next_res < ws.reservations.size()) {
      next_time = std::min(next_time, ws.reservations[next_res].start);
    }
    if (!std::isfinite(next_time) || next_time <= now + kTol) {
      // No event can unblock the remaining jobs: impossible unless a job
      // needs more processors than will ever be simultaneously free.
      throw std::logic_error("list_schedule: deadlock (jobs cannot fit)");
    }
    now = next_time;
    while (!ws.events.empty() && ws.events.front().time <= now + kTol) {
      const auto event = ws.events.front();
      std::pop_heap(ws.events.begin(), ws.events.end(), EventLater{});
      ws.events.pop_back();
      if (event.entry >= 0) {
        const auto e = static_cast<std::size_t>(event.entry);
        const auto begin = static_cast<std::size_t>(out.proc_begin[e]);
        const auto count = static_cast<std::size_t>(out.proc_count[e]);
        for (std::size_t i = begin; i < begin + count; ++i) {
          set_idle(static_cast<std::size_t>(out.proc_ids[i]));
        }
        idle_count += out.proc_count[e];
      } else {
        set_idle(static_cast<std::size_t>(-1 - event.entry));
        ++idle_count;
      }
    }
    activate_reservations(now);
  }
}

Schedule list_schedule(int m, int num_tasks, const std::vector<ListJob>& jobs,
                       const ListScheduleOptions& options) {
  // Validate here so the allocation-free core can trust its inputs; same
  // checks and messages as the Schedule-based implementation had.
  if (m < 1) throw std::invalid_argument("Schedule: m must be >= 1");
  if (num_tasks < 0) {
    throw std::invalid_argument("Schedule: num_tasks must be >= 0");
  }
  std::vector<bool> seen(static_cast<std::size_t>(num_tasks), false);
  for (const auto& job : jobs) {
    if (job.task < 0 || job.task >= num_tasks) {
      throw std::invalid_argument("list_schedule: task index out of range");
    }
    if (seen[static_cast<std::size_t>(job.task)]) {
      throw std::invalid_argument("list_schedule: duplicate task in list");
    }
    seen[static_cast<std::size_t>(job.task)] = true;
    if (job.nprocs < 1 || job.nprocs > m) {
      throw std::invalid_argument("list_schedule: allotment out of range");
    }
    if (!(job.duration > 0.0) || !std::isfinite(job.duration)) {
      throw std::invalid_argument("list_schedule: bad duration");
    }
    if (job.release < 0.0) {
      throw std::invalid_argument("list_schedule: negative release");
    }
  }
  thread_local ListPassWorkspace ws;
  thread_local FlatPlacements flat;
  ws.jobs.assign(jobs.begin(), jobs.end());
  list_schedule_into(m, num_tasks, options.reservations, ws, flat);
  return flat.to_schedule(m);
}

}  // namespace moldsched
