/// \file layers.hpp
/// Layer runners shared by the workloads: the kernel sweeps that time each
/// layer's public entry points on a workload's own instances, the
/// closed-loop serving client, the chunked trace replay, and the traced
/// phases that alternate untraced and traced rounds. A traced run measures
/// only the layers on its workload's path; every other per-layer metric
/// reads 0 (add_off_path_zeros).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/demt.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/stream.hpp"
#include "trace/slo.hpp"
#include "trace/swf.hpp"
#include "trace/tape.hpp"

namespace perfbench {

/// Run `pass` about `budget_s` seconds (at least `min_passes` times) and
/// return the median pass time in seconds.
template <typename Pass>
double median_pass_seconds(double budget_s, int min_passes, Pass&& pass) {
  std::vector<double> times;
  const Clock::time_point begin = Clock::now();
  while (static_cast<int>(times.size()) < min_passes ||
         seconds_between(begin, Clock::now()) < budget_s) {
    const Clock::time_point t0 = Clock::now();
    pass();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

/// Result of a traced phase: median round throughput of the untraced and
/// the traced rounds it alternated, and the timing policy's totals over
/// the traced rounds.
struct TracedPhase {
  double untraced_per_s = 0.0;
  double traced_per_s = 0.0;
  TimingPolicy::Totals policy;
};

/// Adds core.demt_us, core.demt_allocs_per_call,
/// dualapprox.dual_tests_per_call, core.batches_per_call,
/// core.shuffle_improvements_per_call and bench.tracing_overhead_pct.
void add_policy_metrics(const TracedPhase& phase, RunResult& out);

/// Times the kernels of one DEMT call on `instances` (a sample of the
/// instances a workload scheduled), spending about `budget_s` per kernel.
/// Adds tasks.allotment_build_us, dualapprox.estimate_us,
/// core.batch_select_us, core.knapsack_us, sched.list_pass_us and
/// sched.compaction_us.
void sweep_kernels(const std::vector<const moldsched::Instance*>& instances,
                   double budget_s, RunResult& out);

/// Times the serving path's own entry points on `instances` the same way.
/// Adds cache.signature_us, cache.lookup_hit_us and
/// engine.batch_overhead_us.
void sweep_serving_kernels(
    const std::vector<const moldsched::Instance*>& instances, double budget_s,
    RunResult& out);

/// Adds 0 for every per-layer metric `out` does not hold yet, so the
/// result line names every per-layer metric; 0 marks a layer that is not
/// on the workload's path. Notes which metrics those are.
void add_off_path_zeros(RunResult& out);

/// Addresses of at most `limit` evenly spaced elements of `instances`.
std::vector<const moldsched::Instance*> sample(
    const std::vector<moldsched::Instance>& instances, std::size_t limit);

// ------------------------------------------------------------- serving

/// What the program answered for an instance when called directly.
struct DirectResult {
  double cmax = 0.0;
  double wcs = 0.0;
  moldsched::DemtDiagnostics diag;
};
/// Direct DemtPolicy::schedule_into of every instance, each schedule
/// checked by the independent checker (failures go to out.errors).
std::vector<DirectResult> direct_results(
    const std::vector<moldsched::Instance>& catalog, RunResult& out);

/// Serving configuration of serve_recurring.
struct ServeShape {
  int shards = 2;
  int window = 64;
  int max_batch = 16;
  double flush_after_ms = 0.5;
  std::size_t cache_capacity = 64;
  int cache_shards = 4;
};
moldsched::AsyncOptions async_options(const ServeShape& shape,
                                      moldsched::DecisionCache* cache);
moldsched::DecisionCacheOptions cache_options(const ServeShape& shape);

/// Closed-loop client: keeps `window` requests in flight, each drawn from
/// `sequence` (indices into `catalog`), waits on and takes the oldest, and
/// compares every result with `direct`. Samples go to the optional vectors
/// (reserved by the caller so the loop does not allocate).
struct ServeLoopStats {
  double wall_s = 0.0;
  std::uint64_t failed = 0;      ///< tickets that did not reach Done
  std::uint64_t mismatched = 0;  ///< results unequal to the direct call
};
struct ServeSamples {
  std::vector<double>* latency_ms = nullptr;  ///< submit -> take
  std::vector<double>* submit_us = nullptr;   ///< submit() call
  std::vector<double>* done_ms = nullptr;     ///< latency_seconds(ticket)
};
ServeLoopStats serve_closed_loop(
    moldsched::AsyncScheduler& async, const moldsched::SchedulingPolicy& policy,
    const std::vector<moldsched::Instance>& catalog,
    const std::vector<DirectResult>& direct, const std::vector<int>& sequence,
    int window, const ServeSamples& samples);

/// Traced serving phase on a fresh scheduler and cache: one warm-up
/// round, then untraced and traced rounds alternated for about
/// `budget_s`. Adds serve.submit_us, serve.done_latency_p50_ms,
/// serve.batch_size_mean, serve.policy_share, serve.allocs_per_request,
/// cache.hit_rate and cache.evictions_per_1k (over the traced rounds).
TracedPhase serve_traced_phase(const ServeShape& shape,
                               const std::vector<moldsched::Instance>& catalog,
                               const std::vector<DirectResult>& direct,
                               const std::vector<int>& sequence,
                               double budget_s, RunResult& out);

// ------------------------------------------------------ trace / stream

/// The trace_stream input: a synthetic SWF log written and parsed in
/// memory, the moldable tape compiled from it, and the tape as one
/// instance plus releases for the checker and the bounds.
struct TraceInputs {
  moldsched::SwfTrace log;
  std::string text;
  moldsched::Tape tape;
  moldsched::Instance whole{1};
  std::vector<double> releases;
};
/// Synthesize `jobs` log records from `seed`, write and parse them in
/// memory, and compile the tape.
void make_trace_inputs(std::uint64_t seed, int jobs, TraceInputs& out);
moldsched::TapeOptions tape_options();

/// One chunked replay of the tape through `stream`: fixed chunks of
/// `chunk` arrivals with the watermark at the next arrival's release, then
/// finish. Every delivered job is recorded in `slo`.
struct ReplayStats {
  double busy_s = 0.0;  ///< time inside feed/finish and the SLO records
  /// Chained digests of every delivered placement and batch start; they
  /// do not depend on where deliveries split the stream.
  std::uint64_t placements = 0;
  std::uint64_t starts = 0;
  int batches = 0;
  int jobs = 0;
  double cmax = 0.0;
  double wcs = 0.0;
  double wflow = 0.0;  ///< weighted flow sum the stream reports
  bool contiguous = true;  ///< deliveries arrived in job order

  [[nodiscard]] std::uint64_t digest() const noexcept {
    return mix64(placements, starts);
  }
};
ReplayStats replay_tape(const moldsched::Tape& tape, int chunk,
                        const moldsched::SchedulingPolicy& policy,
                        moldsched::PolicyWorkspace& ws,
                        moldsched::OnlineStream& stream,
                        moldsched::StreamDelivery& delivery,
                        moldsched::SloAccumulator& slo,
                        std::vector<double>* feed_ms,
                        moldsched::FlatPlacements* assembled);

/// Traced stream phase: untraced and traced replays alternated for about
/// `budget_s` (one warm-up replay first; `reference_digest` checks every
/// replay). Adds trace.parse_mb_per_s, trace.compile_us_per_job,
/// trace.slo_record_ns, sim.policy_share, sim.jobs_per_batch and
/// sim.allocs_per_arrival. With `capture`, the batch instances of one
/// traced replay are copied into it.
TracedPhase stream_traced_phase(const TraceInputs& inputs, int chunk,
                                std::uint64_t reference_digest,
                                double budget_s, RunResult& out,
                                std::vector<moldsched::Instance>* capture);

}  // namespace perfbench
