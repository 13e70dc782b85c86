/// \file bench.hpp
/// Shared pieces of the DEMT benchmark: run arguments, the result record
/// printed as the last JSON line, timing helpers, the independent schedule
/// checker and lower bounds, the counting allocator hook, and the
/// delegating timing policy the traced runs wrap DemtPolicy in.
///
/// The benchmark reaches the library only through `SchedulingPolicy`
/// (`DemtPolicy` with default options) and the flat `*_into` kernels, so it
/// keeps building when the deprecated request adapters and the reference
/// twins leave the library.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "sched/flat_schedule.hpp"
#include "tasks/instance.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one invocation reports: the JSON fields plus human-readable notes
/// (printed before the JSON line) and check failures.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> errors;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back(Metric{name, unit, value});
  }
  void note(const std::string& line) { notes.push_back(line); }
  void fail_check(const std::string& what) { errors.push_back(what); }
};

/// Linear-interpolated quantile of `values` (copied, then sorted);
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
double mean(const std::vector<double>& values);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

std::string fmt(const char* format, ...);

// ------------------------------------------------------------ checker

/// One schedule to check: the instance (machine size, time vectors,
/// weights), per-task release dates (empty = all zero), the placements,
/// and the metrics the program reported for them.
struct CheckInput {
  const moldsched::Instance* instance = nullptr;
  const std::vector<double>* releases = nullptr;
  const moldsched::FlatPlacements* placements = nullptr;
  double reported_cmax = 0.0;
  double reported_wcs = 0.0;
};

/// Independent feasibility check. Returns "" when the schedule is valid,
/// else the first violation found: every task placed once with an
/// allotment in [max(1, min_procs), min(max_procs, m)] and the task's time
/// at that allotment, distinct processor ids in [0, m), no start before
/// the release, no two time-overlapping tasks on one processor, at most m
/// processors busy at any instant, and recomputed makespan and weighted
/// completion sum equal to the reported ones.
std::string check_schedule(const CheckInput& input);

/// Makespan lower bound computed from the instance alone: the larger of
/// total minimum work over m and the largest release plus fastest time.
double cmax_lower_bound(const moldsched::Instance& instance,
                        const std::vector<double>* releases);

/// Sum over tasks of their least work over allowed allotments.
double total_least_work(const moldsched::Instance& instance);

/// Weighted-flow lower bound: sum w_j * fastest time_j, since no task
/// completes sooner than its fastest time after its release.
double weighted_fastest_sum(const moldsched::Instance& instance);

/// Weighted-completion lower bound computed from the instance alone: the
/// larger of sum w_j (r_j + fastest time_j) and the squashed-area
/// Smith-order bound (jobs of length min work / m on one machine, in
/// w / length decreasing order; releases ignored).
double minsum_lower_bound(const moldsched::Instance& instance,
                          const std::vector<double>* releases);

/// SplitMix64 finalizer over (h ^ v): one step of the digests below.
std::uint64_t mix64(std::uint64_t h, std::uint64_t v) noexcept;

/// 64-bit mix of every placement's start, duration and processor ids,
/// continuing from state `h`, so a repeated run can be compared against a
/// checked one without keeping it. Chains across split outputs: digesting
/// a then b from the state a left equals digesting a followed by b.
std::uint64_t placements_digest(const moldsched::FlatPlacements& p,
                                std::uint64_t h = 0);

// -------------------------------------------------- allocation counting

/// Heap allocations made by the calling thread so far (counting hook).
std::uint64_t thread_allocs() noexcept;
/// Heap allocations made by the whole process so far.
std::uint64_t process_allocs() noexcept;

// ---------------------------------------------------- timing policy

/// Delegating policy: forwards to `inner` (its cache key and workspace
/// included) and accumulates, per call, the wall time, the calling
/// thread's heap allocations and the DEMT diagnostics. Counters are
/// atomics so shard strands may share one object. With capture on, every
/// batch instance it sees and the placements returned for it are copied
/// (outside timed phases only).
class TimingPolicy final : public moldsched::SchedulingPolicy {
 public:
  explicit TimingPolicy(const moldsched::SchedulingPolicy& inner)
      : inner_(inner) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] std::unique_ptr<moldsched::PolicyWorkspace> make_workspace()
      const override;
  void schedule_into(const moldsched::Instance& batch,
                     moldsched::PolicyWorkspace& ws,
                     moldsched::FlatPlacements& out) const override;
  [[nodiscard]] std::uint64_t cache_key() const noexcept override {
    return inner_.cache_key();
  }

  struct Totals {
    std::uint64_t calls = 0;
    double seconds = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t dual_tests = 0;
    std::uint64_t batches = 0;
    std::uint64_t shuffle_improvements = 0;
  };
  [[nodiscard]] Totals totals() const noexcept;
  void reset() noexcept;

  /// Copy every instance scheduled from now on into captured() and its
  /// placements into captured_placements() (single strand only; allocates).
  void set_capture(bool on) noexcept { capture_ = on; }
  [[nodiscard]] const std::vector<moldsched::Instance>& captured() const {
    return captured_;
  }
  [[nodiscard]] const std::vector<moldsched::FlatPlacements>&
  captured_placements() const {
    return captured_placements_;
  }

 private:
  const moldsched::SchedulingPolicy& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> nanos_{0};
  mutable std::atomic<std::uint64_t> allocs_{0};
  mutable std::atomic<std::uint64_t> dual_tests_{0};
  mutable std::atomic<std::uint64_t> batches_{0};
  mutable std::atomic<std::uint64_t> shuffle_improvements_{0};
  bool capture_ = false;
  mutable std::vector<moldsched::Instance> captured_;
  mutable std::vector<moldsched::FlatPlacements> captured_placements_;
};

// ---------------------------------------------------------- workloads

void run_offline_paper_mix(const RunArgs& args, RunResult& out);
void run_trace_stream(const RunArgs& args, RunResult& out);
void run_serve_recurring(const RunArgs& args, RunResult& out);

/// Print the machine fingerprint and the reference figures the README
/// quotes (spin-probe speed-up, engine multi-worker batches, one-shard
/// serving).
int run_reference(std::uint64_t seed);

}  // namespace perfbench
