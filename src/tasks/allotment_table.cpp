#include "tasks/allotment_table.hpp"

#include <algorithm>
#include <limits>

namespace moldsched {

AllotmentTable::AllotmentTable(const MoldableTask& task) {
  const int lo = task.min_procs();
  const int hi = task.max_procs();
  const auto count = static_cast<std::size_t>(hi - lo + 1);

  std::vector<int> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = lo + static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ta = task.time(a);
    const double tb = task.time(b);
    if (ta != tb) return ta < tb;
    return a < b;
  });

  sorted_times_.resize(count);
  prefix_min_k_.resize(count);
  prefix_min_work_k_.resize(count);
  int best_k = order[0];
  int best_work_k = order[0];
  double best_work = best_work_k * task.time(best_work_k);
  for (std::size_t i = 0; i < count; ++i) {
    const int k = order[i];
    sorted_times_[i] = task.time(k);
    best_k = std::min(best_k, k);
    const double w = k * task.time(k);
    // Same tie-break as MoldableTask::min_work_allotment's ascending-k scan
    // with a strict `<`: equal work keeps the smaller allotment.
    if (w < best_work || (w == best_work && k < best_work_k)) {
      best_work = w;
      best_work_k = k;
    }
    prefix_min_k_[i] = best_k;
    prefix_min_work_k_[i] = best_work_k;
  }

  monotone_ = task.is_time_monotone(0.0) && task.is_work_monotone(0.0);
}

int AllotmentTable::canonical(double deadline) const noexcept {
  const auto it =
      std::upper_bound(sorted_times_.begin(), sorted_times_.end(), deadline);
  if (it == sorted_times_.begin()) return 0;
  return prefix_min_k_[static_cast<std::size_t>(it - sorted_times_.begin()) -
                       1];
}

int AllotmentTable::min_work(double deadline) const noexcept {
  const auto it =
      std::upper_bound(sorted_times_.begin(), sorted_times_.end(), deadline);
  if (it == sorted_times_.begin()) return 0;
  return prefix_min_work_k_
      [static_cast<std::size_t>(it - sorted_times_.begin()) - 1];
}

int InstanceAllotments::View::canonical(double deadline) const noexcept {
  const double* end = times_ + count_;
  const double* it = std::upper_bound(times_, end, deadline);
  if (it == times_) return 0;
  return min_k_[(it - times_) - 1];
}

int InstanceAllotments::View::min_work(double deadline) const noexcept {
  const double* end = times_ + count_;
  const double* it = std::upper_bound(times_, end, deadline);
  if (it == times_) return 0;
  return min_work_k_[(it - times_) - 1];
}

void InstanceAllotments::build(const Instance& instance) {
  const std::vector<MoldableTask>& tasks = instance.tasks();
  const int n = instance.num_tasks();
  begin_.resize(static_cast<std::size_t>(n) + 1);
  monotone_.resize(static_cast<std::size_t>(n));
  min_time_.resize(static_cast<std::size_t>(n));
  min_work_.resize(static_cast<std::size_t>(n));

  int total = 0;
  begin_[0] = 0;
  for (int t = 0; t < n; ++t) {
    const MoldableTask& task = tasks[static_cast<std::size_t>(t)];
    total += task.max_procs() - task.min_procs() + 1;
    begin_[static_cast<std::size_t>(t) + 1] = total;
  }
  times_.resize(static_cast<std::size_t>(total));
  min_k_.resize(static_cast<std::size_t>(total));
  min_work_k_.resize(static_cast<std::size_t>(total));

  tmin_ = std::numeric_limits<double>::infinity();
  total_min_work_ = 0.0;
  for (int t = 0; t < n; ++t) {
    const MoldableTask& task = tasks[static_cast<std::size_t>(t)];
    const int lo = task.min_procs();
    const int hi = task.max_procs();
    const double* raw = task.times().data();
    const auto p = [raw](int k) { return raw[k - 1]; };  // task.time(k)
    const int base = begin_[static_cast<std::size_t>(t)];

    // The comparisons of is_time_monotone(0.0) and is_work_monotone(0.0)
    // (adding a zero tolerance to a positive time changes nothing).
    bool time_monotone = true;
    bool work_monotone = true;
    for (int k = lo + 1; k <= hi; ++k) {
      if (p(k) > p(k - 1)) time_monotone = false;
      if (k * p(k) < (k - 1) * p(k - 1)) work_monotone = false;
    }

    // Row writer: the same prefix scans as AllotmentTable, fed the
    // allotments in (time asc, k asc) order. Starting best_work at +inf
    // with best_work_k above every k makes the first row entry win exactly
    // as AllotmentTable's seeding from order[0] does.
    double* times = times_.data() + base;
    int* min_k = min_k_.data() + base;
    int* min_work_k = min_work_k_.data() + base;
    int i = 0;
    int best_k = std::numeric_limits<int>::max();
    int best_work_k = std::numeric_limits<int>::max();
    double best_work = std::numeric_limits<double>::infinity();
    const auto emit = [&](int k) {
      times[i] = p(k);
      best_k = std::min(best_k, k);
      const double w = k * p(k);
      if (w < best_work || (w == best_work && k < best_work_k)) {
        best_work = w;
        best_work_k = k;
      }
      min_k[i] = best_k;
      min_work_k[i] = best_work_k;
      ++i;
    };

    if (time_monotone) {
      // Times fall as k grows, so the sorted order is k descending with
      // each run of equal times written in ascending k: one walk, no sort.
      for (int k = hi; k >= lo;) {
        int run = k;
        while (run > lo && p(run - 1) == p(k)) --run;
        for (int j = run; j <= k; ++j) emit(j);
        k = run - 1;
      }
    } else {
      order_.resize(static_cast<std::size_t>(hi - lo + 1));
      for (int k = lo; k <= hi; ++k) {
        order_[static_cast<std::size_t>(k - lo)] = k;
      }
      std::sort(order_.begin(), order_.end(), [p](int a, int b) {
        if (p(a) != p(b)) return p(a) < p(b);
        return a < b;
      });
      for (int k : order_) emit(k);
    }

    monotone_[static_cast<std::size_t>(t)] =
        (time_monotone && work_monotone) ? 1 : 0;
    // The row's first time is the fastest; best_work has seen every work.
    min_time_[static_cast<std::size_t>(t)] = times[0];
    min_work_[static_cast<std::size_t>(t)] = best_work;
    tmin_ = std::min(tmin_, times[0]);
    total_min_work_ += best_work;
  }
}

}  // namespace moldsched
