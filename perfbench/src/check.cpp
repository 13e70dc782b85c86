// Independent schedule checker, program-independent lower bounds, and small
// statistics helpers. Nothing here calls the library's own validator,
// bounds or metric code: the checker must catch a wrong answer that the
// program's paths agree on.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "bench.hpp"

namespace perfbench {

using moldsched::FlatPlacements;
using moldsched::Instance;
using moldsched::MoldableTask;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

std::string fmt(const char* format, ...) {
  char buffer[1024];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buffer, sizeof(buffer), format, ap);
  va_end(ap);
  return buffer;
}

namespace {

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Allowed allotments of `task` on an m-processor machine.
int lowest_allotment(const MoldableTask& task) {
  return std::max(1, task.min_procs());
}
int highest_allotment(const MoldableTask& task, int m) {
  return std::min(static_cast<int>(task.times().size()), m);
}

double fastest_time(const MoldableTask& task, int m) {
  double best = INFINITY;
  for (int k = lowest_allotment(task); k <= highest_allotment(task, m); ++k) {
    best = std::min(best, task.times()[static_cast<std::size_t>(k - 1)]);
  }
  return best;
}

double least_work(const MoldableTask& task, int m) {
  double best = INFINITY;
  for (int k = lowest_allotment(task); k <= highest_allotment(task, m); ++k) {
    best = std::min(best, k * task.times()[static_cast<std::size_t>(k - 1)]);
  }
  return best;
}

double release_of(const std::vector<double>* releases, int t) {
  return releases == nullptr || releases->empty()
             ? 0.0
             : (*releases)[static_cast<std::size_t>(t)];
}

}  // namespace

std::string check_schedule(const CheckInput& in) {
  const Instance& inst = *in.instance;
  const FlatPlacements& p = *in.placements;
  const int m = inst.procs();
  const int n = inst.num_tasks();
  if (p.size() != n) {
    return fmt("%d placements for %d tasks", p.size(), n);
  }
  if (in.releases != nullptr && !in.releases->empty() &&
      static_cast<int>(in.releases->size()) != n) {
    return "release vector does not match the task count";
  }
  if (p.proc_begin.size() != static_cast<std::size_t>(n) ||
      p.proc_count.size() != static_cast<std::size_t>(n) ||
      p.duration.size() != static_cast<std::size_t>(n)) {
    return "placement arrays differ in length";
  }
  // Per-processor busy intervals, and allotment change events.
  std::vector<std::vector<std::pair<double, double>>> busy(
      static_cast<std::size_t>(m));
  std::vector<std::pair<double, int>> events;
  events.reserve(static_cast<std::size_t>(2 * n));
  double cmax = 0.0;
  double wcs = 0.0;
  std::vector<char> seen(static_cast<std::size_t>(m), 0);
  for (int t = 0; t < n; ++t) {
    const auto e = static_cast<std::size_t>(t);
    const MoldableTask& task = inst.task(t);
    const double start = p.start[e];
    const double duration = p.duration[e];
    const int k = p.proc_count[e];
    if (!(duration > 0.0)) return fmt("task %d is not placed", t);
    if (k < lowest_allotment(task) || k > highest_allotment(task, m)) {
      return fmt("task %d has allotment %d outside [%d, %d]", t, k,
                 lowest_allotment(task), highest_allotment(task, m));
    }
    if (duration != task.times()[static_cast<std::size_t>(k - 1)]) {
      return fmt("task %d runs %.17g on %d processors, its time is %.17g", t,
                 duration, k, task.times()[static_cast<std::size_t>(k - 1)]);
    }
    const double release = release_of(in.releases, t);
    if (!(start >= release - 1e-9 * std::max(1.0, std::fabs(release)))) {
      return fmt("task %d starts at %.17g before its release %.17g", t, start,
                 release);
    }
    const int begin = p.proc_begin[e];
    if (begin < 0 || static_cast<std::size_t>(begin) + k > p.proc_ids.size()) {
      return fmt("task %d has a processor range outside the pool", t);
    }
    for (int i = 0; i < k; ++i) {
      const int proc = p.proc_ids[static_cast<std::size_t>(begin + i)];
      if (proc < 0 || proc >= m) {
        return fmt("task %d uses processor %d outside [0, %d)", t, proc, m);
      }
      if (seen[static_cast<std::size_t>(proc)] != 0) {
        return fmt("task %d lists processor %d twice", t, proc);
      }
      seen[static_cast<std::size_t>(proc)] = 1;
      busy[static_cast<std::size_t>(proc)].emplace_back(start,
                                                        start + duration);
    }
    for (int i = 0; i < k; ++i) {
      seen[static_cast<std::size_t>(p.proc_ids[static_cast<std::size_t>(
          begin + i)])] = 0;
    }
    // An end within the time tolerance of a start counts as before it, as
    // in the per-processor test below (a start one rounding step before
    // its predecessor's computed end is not an overlap).
    const double end = start + duration;
    events.emplace_back(start, k);
    events.emplace_back(end - 1e-9 * std::max(1.0, std::fabs(end)), -k);
    cmax = std::max(cmax, start + duration);
    wcs += task.weight() * (start + duration);
  }
  for (int proc = 0; proc < m; ++proc) {
    auto& list = busy[static_cast<std::size_t>(proc)];
    std::sort(list.begin(), list.end());
    for (std::size_t i = 1; i < list.size(); ++i) {
      const double end = list[i - 1].second;
      if (list[i].first < end - 1e-9 * std::max(1.0, std::fabs(end))) {
        return fmt("processor %d runs two tasks at once around %.17g", proc,
                   list[i].first);
      }
    }
  }
  // Releases before acquisitions at equal instants: a task may start
  // exactly when another ends.
  std::sort(events.begin(), events.end());
  int in_use = 0;
  for (const auto& [time, delta] : events) {
    in_use += delta;
    if (in_use > m) {
      return fmt("%d processors busy at %.17g on a %d-processor machine",
                 in_use, time, m);
    }
  }
  if (!close_enough(cmax, in.reported_cmax)) {
    return fmt("recomputed makespan %.17g, reported %.17g", cmax,
               in.reported_cmax);
  }
  if (!close_enough(wcs, in.reported_wcs)) {
    return fmt("recomputed weighted completion %.17g, reported %.17g", wcs,
               in.reported_wcs);
  }
  return "";
}

double cmax_lower_bound(const Instance& instance,
                        const std::vector<double>* releases) {
  const int m = instance.procs();
  double area = 0.0;
  double latest = 0.0;
  for (int t = 0; t < instance.num_tasks(); ++t) {
    const MoldableTask& task = instance.task(t);
    area += least_work(task, m);
    latest = std::max(latest, release_of(releases, t) + fastest_time(task, m));
  }
  return std::max(area / m, latest);
}

double total_least_work(const Instance& instance) {
  double area = 0.0;
  for (const MoldableTask& task : instance.tasks()) {
    area += least_work(task, instance.procs());
  }
  return area;
}

double weighted_fastest_sum(const Instance& instance) {
  double sum = 0.0;
  for (const MoldableTask& task : instance.tasks()) {
    sum += task.weight() * fastest_time(task, instance.procs());
  }
  return sum;
}

double minsum_lower_bound(const Instance& instance,
                          const std::vector<double>* releases) {
  const int m = instance.procs();
  const int n = instance.num_tasks();
  double own = 0.0;
  std::vector<std::pair<double, double>> jobs;  // (length, weight)
  jobs.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    const MoldableTask& task = instance.task(t);
    own += task.weight() * (release_of(releases, t) + fastest_time(task, m));
    jobs.emplace_back(least_work(task, m) / m, task.weight());
  }
  // Smith's rule: w / length decreasing, compared without division.
  std::sort(jobs.begin(), jobs.end(), [](const auto& a, const auto& b) {
    return a.second * b.first > b.second * a.first;
  });
  double clock = 0.0;
  double squashed = 0.0;
  for (const auto& [length, weight] : jobs) {
    clock += length;
    squashed += weight * clock;
  }
  return std::max(own, squashed);
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t z = (h ^ v) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t placements_digest(const FlatPlacements& p, std::uint64_t h) {
  const auto bits = [](double d) {
    std::uint64_t v = 0;
    std::memcpy(&v, &d, sizeof(v));
    return v;
  };
  for (int e = 0; e < p.size(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    h = mix64(h, bits(p.start[i]));
    h = mix64(h, bits(p.duration[i]));
    for (int k = 0; k < p.proc_count[i]; ++k) {
      h = mix64(h, static_cast<std::uint64_t>(
                       p.proc_ids[static_cast<std::size_t>(p.proc_begin[i] + k)]));
    }
  }
  return h;
}

}  // namespace perfbench
