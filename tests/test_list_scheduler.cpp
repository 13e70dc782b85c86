#include "sched/list_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sched/validator.hpp"
#include "util/rng.hpp"

namespace moldsched {
namespace {

TEST(ListScheduler, SingleJob) {
  const Schedule schedule = list_schedule(4, 1, {{0, 2, 3.0, 0.0}});
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 0.0);
  EXPECT_EQ(schedule.placement(0).nprocs(), 2);
  EXPECT_DOUBLE_EQ(schedule.cmax(), 3.0);
}

TEST(ListScheduler, PacksGreedilyAtTimeZero) {
  // Three 2-proc jobs on 4 procs: two start immediately, third waits.
  const Schedule schedule = list_schedule(
      4, 3, {{0, 2, 5.0, 0.0}, {1, 2, 3.0, 0.0}, {2, 2, 4.0, 0.0}});
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 0.0);
  EXPECT_DOUBLE_EQ(schedule.placement(1).start, 0.0);
  // Job 2 starts when job 1 (the shorter) finishes.
  EXPECT_DOUBLE_EQ(schedule.placement(2).start, 3.0);
  EXPECT_DOUBLE_EQ(schedule.cmax(), 7.0);
}

TEST(ListScheduler, LaterListEntryCanBackfill) {
  // Graham list behaviour: job 1 needs 3 procs (can't fit at t=0 next to
  // job 0 on 4 procs), job 2 needs 1 proc and jumps ahead.
  const Schedule schedule = list_schedule(
      4, 3, {{0, 2, 4.0, 0.0}, {1, 3, 2.0, 0.0}, {2, 1, 1.0, 0.0}});
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 0.0);
  EXPECT_DOUBLE_EQ(schedule.placement(2).start, 0.0);  // backfilled
  EXPECT_DOUBLE_EQ(schedule.placement(1).start, 4.0);
}

TEST(ListScheduler, RespectsReleaseDates) {
  const Schedule schedule =
      list_schedule(2, 2, {{0, 1, 2.0, 5.0}, {1, 1, 1.0, 0.0}});
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 5.0);
  EXPECT_DOUBLE_EQ(schedule.placement(1).start, 0.0);
}

TEST(ListScheduler, SequentialWhenMachineIsFull) {
  const Schedule schedule =
      list_schedule(2, 3, {{0, 2, 1.0, 0.0}, {1, 2, 1.0, 0.0}, {2, 2, 1.0, 0.0}});
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 0.0);
  EXPECT_DOUBLE_EQ(schedule.placement(1).start, 1.0);
  EXPECT_DOUBLE_EQ(schedule.placement(2).start, 2.0);
}

TEST(ListScheduler, ProducesValidSchedules) {
  Instance instance(8);
  std::vector<ListJob> jobs;
  for (int i = 0; i < 20; ++i) {
    const int procs = 1 + (i * 7) % 5;
    const double duration = 1.0 + (i % 4);
    std::vector<double> times(8, duration);
    // Build an instance whose p(k) equals the job duration for every k so
    // the duration check passes regardless of the allotment.
    instance.add_task(MoldableTask(std::move(times), 1.0));
    jobs.push_back(ListJob{i, procs, duration, 0.0});
  }
  const Schedule schedule = list_schedule(8, 20, jobs);
  ValidationOptions options;
  options.check_durations = false;
  const auto report = validate_schedule(schedule, instance, options);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(ListScheduler, GrahamBoundHolds) {
  // Classic Graham guarantee for sequential jobs: cmax <= (2 - 1/m) * opt.
  // Build random-ish 1-proc jobs and check against the area/longest bound.
  std::vector<ListJob> jobs;
  double total = 0.0, longest = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double d = 0.5 + (i * 37 % 11);
    jobs.push_back(ListJob{i, 1, d, 0.0});
    total += d;
    longest = std::max(longest, d);
  }
  const int m = 7;
  const Schedule schedule = list_schedule(m, 50, jobs);
  const double lb = std::max(longest, total / m);
  EXPECT_LE(schedule.cmax(), (2.0 - 1.0 / m) * lb + 1e-9);
}

TEST(ListScheduler, Validation) {
  EXPECT_THROW(list_schedule(2, 1, {{0, 3, 1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(list_schedule(2, 1, {{0, 0, 1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(list_schedule(2, 1, {{0, 1, 0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(list_schedule(2, 1, {{0, 1, 1.0, -1.0}}), std::invalid_argument);
  EXPECT_THROW(list_schedule(2, 1, {{2, 1, 1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(list_schedule(2, 2, {{0, 1, 1.0, 0.0}, {0, 1, 1.0, 0.0}}),
               std::invalid_argument);
}

TEST(ListScheduler, PartialJobListLeavesOthersUnassigned) {
  const Schedule schedule = list_schedule(2, 5, {{3, 1, 2.0, 0.0}});
  EXPECT_TRUE(schedule.assigned(3));
  EXPECT_FALSE(schedule.assigned(0));
  EXPECT_FALSE(schedule.assigned(4));
}

TEST(ListScheduler, ReservationBlocksProcessor) {
  // Processor 0 reserved [0, 10): a 1-proc job must use processor 1.
  const std::vector<BusyInterval> reservations = {{0, 0.0, 10.0}};
  const Schedule schedule =
      list_schedule(2, 1, {{0, 1, 2.0, 0.0}}, reservations);
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 0.0);
  EXPECT_EQ(schedule.placement(0).procs[0], 1);
}

TEST(ListScheduler, ReservationDelaysWideJob) {
  // Both procs needed but proc 1 reserved [0, 4): job waits until 4.
  const std::vector<BusyInterval> reservations = {{1, 0.0, 4.0}};
  const Schedule schedule =
      list_schedule(2, 1, {{0, 2, 1.0, 0.0}}, reservations);
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 4.0);
}

TEST(ListScheduler, UpcomingReservationStopsLongJob) {
  // Proc 0 reserved [3, 5). A job of length 4 cannot use proc 0 at t=0
  // (it would collide at t=3) and must take proc 1.
  const std::vector<BusyInterval> reservations = {{0, 3.0, 5.0}};
  const Schedule schedule =
      list_schedule(2, 1, {{0, 1, 4.0, 0.0}}, reservations);
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 0.0);
  EXPECT_EQ(schedule.placement(0).procs[0], 1);
}

// ------------------------------------------------ event-heap edge cases

TEST(ListScheduler, SimultaneousFinishesDrainAsOneEvent) {
  // Four 1-proc jobs all finish at t=2 (exactly equal doubles). The event
  // heap must pop every tied finish before rescanning, so the 4-proc job
  // sees the whole machine at once and starts at 2, not at some later
  // partially-freed instant.
  const Schedule schedule = list_schedule(
      4, 5, {{0, 1, 2.0, 0.0}, {1, 1, 2.0, 0.0}, {2, 1, 2.0, 0.0},
             {3, 1, 2.0, 0.0}, {4, 4, 1.0, 0.0}});
  EXPECT_DOUBLE_EQ(schedule.placement(4).start, 2.0);
  EXPECT_DOUBLE_EQ(schedule.cmax(), 3.0);
}

TEST(ListScheduler, EqualDurationTiesKeepListOrder) {
  // Three identical 2-proc jobs on 2 procs: ties in every heap key. The
  // schedule must follow the priority list deterministically.
  const Schedule schedule = list_schedule(
      2, 3, {{2, 2, 1.5, 0.0}, {0, 2, 1.5, 0.0}, {1, 2, 1.5, 0.0}});
  EXPECT_DOUBLE_EQ(schedule.placement(2).start, 0.0);
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 1.5);
  EXPECT_DOUBLE_EQ(schedule.placement(1).start, 3.0);
}

TEST(ListScheduler, SingleProcessorChainsInListOrder) {
  // m=1 degenerates to a sequential chain: starts are exact running sums
  // (no epsilon drift from the event loop), releases still respected.
  const Schedule schedule = list_schedule(
      1, 4, {{0, 1, 1.25, 0.0}, {1, 1, 0.5, 0.0}, {2, 1, 2.0, 0.0},
             {3, 1, 1.0, 5.0}});
  EXPECT_EQ(schedule.placement(0).start, 0.0);
  EXPECT_EQ(schedule.placement(1).start, 1.25);
  EXPECT_EQ(schedule.placement(2).start, 1.75);
  EXPECT_EQ(schedule.placement(3).start, 5.0);  // waits for its release
  EXPECT_DOUBLE_EQ(schedule.cmax(), 6.0);
}

TEST(ListScheduler, JobStartsExactlyAtReservationEnd) {
  // Reservation [0, 4) on the only processor: the freeing event at exactly
  // t=4 must make the processor usable at 4, not strictly after it.
  const std::vector<BusyInterval> reservations = {{0, 0.0, 4.0}};
  const Schedule schedule =
      list_schedule(1, 1, {{0, 1, 2.0, 0.0}}, reservations);
  EXPECT_EQ(schedule.placement(0).start, 4.0);
}

TEST(ListScheduler, JobFinishingExactlyAtReservationStartFits) {
  // Proc 0 reserved [3, 5). A job of length 3 at t=0 finishes exactly when
  // the reservation begins — a half-open boundary, so it may use proc 0.
  const std::vector<BusyInterval> reservations = {{0, 3.0, 5.0}};
  const Schedule schedule =
      list_schedule(1, 1, {{0, 1, 3.0, 0.0}}, reservations);
  EXPECT_EQ(schedule.placement(0).start, 0.0);
  EXPECT_EQ(schedule.placement(0).procs[0], 0);
}

TEST(ListScheduler, ReservationFinishTiedWithJobFinish) {
  // A job finish and a reservation finish land on the same heap key
  // (t=2): both frees must drain before the 2-proc job is scanned, so it
  // starts at exactly 2 on the full machine.
  const std::vector<BusyInterval> reservations = {{1, 0.0, 2.0}};
  const Schedule schedule =
      list_schedule(2, 2, {{0, 1, 2.0, 0.0}, {1, 2, 1.0, 0.0}}, reservations);
  EXPECT_EQ(schedule.placement(0).start, 0.0);
  EXPECT_EQ(schedule.placement(1).start, 2.0);
  EXPECT_DOUBLE_EQ(schedule.cmax(), 3.0);
}

TEST(ListScheduler, BackToBackReservationsOnOneProcessor) {
  // Two abutting reservations [0,2) and [2,4) on proc 0 of a 1-proc
  // machine: the per-proc reservation chain must advance across the shared
  // boundary without opening a zero-width hole at t=2.
  const std::vector<BusyInterval> reservations = {{0, 0.0, 2.0}, {0, 2.0, 4.0}};
  const Schedule schedule =
      list_schedule(1, 1, {{0, 1, 1.0, 0.0}}, reservations);
  EXPECT_EQ(schedule.placement(0).start, 4.0);
}


// ------------------------------------------------- full-rescan oracle

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTol = 1e-12;

struct EventLater {
  bool operator()(const ListPassWorkspace::FinishEvent& a,
                  const ListPassWorkspace::FinishEvent& b) const noexcept {
    return a.time > b.time;
  }
};

/// The list pass as it stood before the unfinished-job cursor and the idle
/// bitset: the start loop walks the whole list from index 0 at every event,
/// processors are picked by a scan over one idle byte each, and the next
/// release is found by a full scan. Kept as the oracle the production pass
/// must match placement for placement.
void naive_list_schedule_into(int m, int num_entries,
                              const std::vector<BusyInterval>& reservations,
                              ListPassWorkspace& ws, FlatPlacements& out) {
  out.reset(num_entries);
  ws.events.clear();
  std::vector<std::uint8_t> idle(static_cast<std::size_t>(m), 1);
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
      if (!idle[p]) {
        throw std::logic_error(
            "list_schedule: reservation starts on a busy processor");
      }
      idle[p] = 0;
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
    for (std::size_t j = 0; j < ws.jobs.size() && idle_count > 0; ++j) {
      if (ws.done[j]) continue;
      const ListJob& job = ws.jobs[j];
      if (job.release > now + kTol) continue;
      if (job.nprocs > idle_count) continue;
      // Pick the lowest-numbered idle processors that are reservation-free
      // for [now, now + duration).
      ws.chosen.clear();
      const double finish = now + job.duration;
      for (int p = 0; p < m && static_cast<int>(ws.chosen.size()) < job.nprocs;
           ++p) {
        const auto pi = static_cast<std::size_t>(p);
        if (!idle[pi]) continue;
        if (ws.next_res_start[pi] < finish - kTol) continue;  // blocked
        ws.chosen.push_back(p);
      }
      if (static_cast<int>(ws.chosen.size()) < job.nprocs) continue;
      for (int p : ws.chosen) idle[static_cast<std::size_t>(p)] = 0;
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

    // Advance time to the next finish event, job release, or reservation
    // start.
    double next_time = ws.events.empty() ? kInf : ws.events.front().time;
    for (std::size_t j = 0; j < ws.jobs.size(); ++j) {
      if (!ws.done[j] && ws.jobs[j].release > now + kTol) {
        next_time = std::min(next_time, ws.jobs[j].release);
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
          idle[static_cast<std::size_t>(out.proc_ids[i])] = 1;
        }
        idle_count += out.proc_count[e];
      } else {
        idle[static_cast<std::size_t>(-1 - event.entry)] = 1;
        ++idle_count;
      }
    }
    activate_reservations(now);
  }
}

void expect_same_placements(const FlatPlacements& a, const FlatPlacements& b) {
  ASSERT_EQ(a.start.size(), b.start.size());
  for (std::size_t e = 0; e < a.start.size(); ++e) {
    EXPECT_EQ(a.start[e], b.start[e]) << "entry " << e;
    EXPECT_EQ(a.duration[e], b.duration[e]) << "entry " << e;
    EXPECT_EQ(a.proc_count[e], b.proc_count[e]) << "entry " << e;
    if (a.proc_count[e] != b.proc_count[e] || a.duration[e] <= 0.0) continue;
    for (int i = 0; i < a.proc_count[e]; ++i) {
      EXPECT_EQ(a.proc_ids[static_cast<std::size_t>(a.proc_begin[e] + i)],
                b.proc_ids[static_cast<std::size_t>(b.proc_begin[e] + i)])
          << "entry " << e;
    }
  }
  EXPECT_EQ(a.proc_ids, b.proc_ids);
}

TEST(ListScheduler, CursorPassMatchesFullRescanOracle) {
  // Random lists mixing released-at-0 and later jobs, durations from a
  // small set (many tied events), gaps in the task ids, and disjoint
  // per-processor reservations on a third of the lists.
  Rng rng(0x11571);
  ListPassWorkspace ws;
  ListPassWorkspace oracle_ws;
  FlatPlacements got;
  FlatPlacements want;
  int with_releases = 0;
  int with_reservations = 0;
  int compared = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 12));
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    const int entries = n + static_cast<int>(rng.uniform_int(0, 5));
    std::vector<int> ids(static_cast<std::size_t>(entries));
    for (int e = 0; e < entries; ++e) ids[static_cast<std::size_t>(e)] = e;
    rng.shuffle(ids);
    const double release_share = trial % 3 == 0 ? 0.0 : 0.4;
    ws.jobs.clear();
    for (int j = 0; j < n; ++j) {
      ListJob job;
      job.task = ids[static_cast<std::size_t>(j)];
      job.nprocs = static_cast<int>(rng.uniform_int(1, m));
      job.duration = 0.5 * static_cast<double>(rng.uniform_int(1, 8));
      job.release = rng.bernoulli(release_share)
                        ? static_cast<double>(rng.uniform_int(1, 12))
                        : 0.0;
      ws.jobs.push_back(job);
    }
    std::vector<BusyInterval> reservations;
    if (trial % 3 == 1) {
      for (int p = 0; p < m; ++p) {
        double t = static_cast<double>(rng.uniform_int(0, 6));
        while (rng.bernoulli(0.5)) {
          const double len = static_cast<double>(rng.uniform_int(1, 4));
          reservations.push_back({p, t, t + len});
          t += len + static_cast<double>(rng.uniform_int(0, 4));
        }
      }
    }
    with_releases += std::any_of(ws.jobs.begin(), ws.jobs.end(),
                                 [](const ListJob& j) { return j.release > 0; });
    with_reservations += reservations.empty() ? 0 : 1;
    oracle_ws.jobs = ws.jobs;

    bool oracle_threw = false;
    try {
      naive_list_schedule_into(m, entries, reservations, oracle_ws, want);
    } catch (const std::logic_error&) {
      oracle_threw = true;
    }
    if (oracle_threw) {
      EXPECT_THROW(list_schedule_into(m, entries, reservations, ws, got),
                   std::logic_error)
          << "trial " << trial;
      continue;
    }
    list_schedule_into(m, entries, reservations, ws, got);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    expect_same_placements(got, want);
    ++compared;
  }
  EXPECT_GE(compared, 1000);
  EXPECT_GT(with_releases, 400);
  EXPECT_GT(with_reservations, 200);
}

}  // namespace
}  // namespace moldsched
