#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/batching.hpp"
#include "core/decision_cache.hpp"
#include "core/knapsack.hpp"
#include "dualapprox/cmax_estimator.hpp"
#include "engine/engine.hpp"
#include "sched/compaction.hpp"
#include "sched/list_scheduler.hpp"
#include "tasks/allotment_table.hpp"
#include "trace/swf_write.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace moldsched;

// ------------------------------------------------------- timing policy

namespace {
struct TimedWorkspace final : PolicyWorkspace {
  std::unique_ptr<PolicyWorkspace> inner;
};
}  // namespace

std::unique_ptr<PolicyWorkspace> TimingPolicy::make_workspace() const {
  auto ws = std::make_unique<TimedWorkspace>();
  ws->inner = inner_.make_workspace();
  return ws;
}

void TimingPolicy::schedule_into(const Instance& batch, PolicyWorkspace& ws,
                                 FlatPlacements& out) const {
  auto& timed = static_cast<TimedWorkspace&>(ws);
  timed.inner->last_diag = DemtDiagnostics{};
  const std::uint64_t allocs_before = thread_allocs();
  const Clock::time_point t0 = Clock::now();
  inner_.schedule_into(batch, *timed.inner, out);
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t allocs = thread_allocs() - allocs_before;
  ws.last_diag = timed.inner->last_diag;
  if (capture_) {
    captured_.push_back(batch);
    captured_placements_.push_back(out);
  }
  calls_.fetch_add(1, std::memory_order_relaxed);
  nanos_.fetch_add(static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           t1 - t0)
                           .count()),
                   std::memory_order_relaxed);
  allocs_.fetch_add(allocs, std::memory_order_relaxed);
  dual_tests_.fetch_add(static_cast<std::uint64_t>(ws.last_diag.dual_tests),
                        std::memory_order_relaxed);
  batches_.fetch_add(static_cast<std::uint64_t>(ws.last_diag.num_batches),
                     std::memory_order_relaxed);
  shuffle_improvements_.fetch_add(
      static_cast<std::uint64_t>(ws.last_diag.shuffle_improvements),
      std::memory_order_relaxed);
}

TimingPolicy::Totals TimingPolicy::totals() const noexcept {
  Totals t;
  t.calls = calls_.load(std::memory_order_relaxed);
  t.seconds = static_cast<double>(nanos_.load(std::memory_order_relaxed)) *
              1e-9;
  t.allocs = allocs_.load(std::memory_order_relaxed);
  t.dual_tests = dual_tests_.load(std::memory_order_relaxed);
  t.batches = batches_.load(std::memory_order_relaxed);
  t.shuffle_improvements =
      shuffle_improvements_.load(std::memory_order_relaxed);
  return t;
}

void TimingPolicy::reset() noexcept {
  calls_ = 0;
  nanos_ = 0;
  allocs_ = 0;
  dual_tests_ = 0;
  batches_ = 0;
  shuffle_improvements_ = 0;
}

void add_policy_metrics(const TracedPhase& phase, RunResult& out) {
  const TimingPolicy::Totals& t = phase.policy;
  const double calls = std::max<double>(1.0, static_cast<double>(t.calls));
  out.add("core.demt_us", "us", t.seconds * 1e6 / calls);
  out.add("core.demt_allocs_per_call", "count",
          static_cast<double>(t.allocs) / calls);
  out.add("dualapprox.dual_tests_per_call", "count",
          static_cast<double>(t.dual_tests) / calls);
  out.add("core.batches_per_call", "count",
          static_cast<double>(t.batches) / calls);
  out.add("core.shuffle_improvements_per_call", "count",
          static_cast<double>(t.shuffle_improvements) / calls);
  out.add("bench.tracing_overhead_pct", "%",
          phase.untraced_per_s > 0.0
              ? 100.0 * (phase.untraced_per_s - phase.traced_per_s) /
                    phase.untraced_per_s
              : 0.0);
}

// -------------------------------------------------------- kernel sweep

std::vector<const Instance*> sample(const std::vector<Instance>& instances,
                                    std::size_t limit) {
  std::vector<const Instance*> picked;
  const std::size_t n = instances.size();
  const std::size_t count = std::min(n, limit);
  for (std::size_t i = 0; i < count; ++i) {
    picked.push_back(&instances[i * n / count]);
  }
  return picked;
}

void sweep_kernels(const std::vector<const Instance*>& instances,
                   double budget_s, RunResult& out) {
  const DemtOptions demt_options;
  const DemtPolicy demt(demt_options);
  const BatchBuildOptions build_options{demt_options.merge_small_tasks,
                                        demt_options.smith_order_stacks};
  const std::size_t count = instances.size();

  // Inputs of each kernel, as DEMT would hand them over: the tables, the
  // C*max estimate, the geometric batch lengths t_j = C*max / 2^(K-j), the
  // batch items at each length, and DEMT's own schedule.
  std::vector<InstanceAllotments> tables(count);
  std::vector<std::vector<double>> lengths(count);
  std::vector<std::vector<int>> pending(count);
  struct Items {
    std::size_t owner = 0;
    std::vector<int> costs;
    std::vector<double> weights;
  };
  std::vector<Items> items;
  std::vector<FlatPlacements> schedules(count);
  std::vector<std::vector<ListJob>> list_jobs(count);
  DualTestWorkspace dual_ws;
  CmaxEstimate estimate;
  BatchBuildWorkspace build_ws;
  FlatBatchItems batch;
  const std::unique_ptr<PolicyWorkspace> demt_ws = demt.make_workspace();
  for (std::size_t i = 0; i < count; ++i) {
    const Instance& inst = *instances[i];
    tables[i].build(inst);
    estimate_cmax_into(inst, demt_options.dual_eps, tables[i], dual_ws,
                       estimate);
    const double tmin = inst.tmin();
    const int k = estimate.estimate > tmin
                      ? std::min(60, static_cast<int>(std::floor(
                                         std::log2(estimate.estimate / tmin))))
                      : 0;
    for (int j = 0; j <= k; ++j) {
      lengths[i].push_back(estimate.estimate / std::ldexp(1.0, k - j));
    }
    for (int t = 0; t < inst.num_tasks(); ++t) pending[i].push_back(t);
    for (const double length : lengths[i]) {
      build_batch_items_into(inst, pending[i], length, build_options,
                             tables[i], build_ws, batch);
      if (batch.size() == 0) continue;
      items.push_back(Items{i, batch.procs, batch.weight});
    }
    demt.schedule_into(inst, *demt_ws, schedules[i]);
    const FlatPlacements& s = schedules[i];
    std::vector<int> order(static_cast<std::size_t>(s.size()));
    for (int e = 0; e < s.size(); ++e) order[static_cast<std::size_t>(e)] = e;
    std::sort(order.begin(), order.end(), [&s](int a, int b) {
      const double sa = s.start[static_cast<std::size_t>(a)];
      const double sb = s.start[static_cast<std::size_t>(b)];
      return sa != sb ? sa < sb : a < b;
    });
    for (const int e : order) {
      const auto u = static_cast<std::size_t>(e);
      list_jobs[i].push_back(ListJob{e, s.proc_count[u], s.duration[u], 0.0});
    }
  }
  const double per_instance_us = 1e6 / static_cast<double>(count);

  InstanceAllotments scratch_tables;
  out.add("tasks.allotment_build_us", "us",
          median_pass_seconds(budget_s, 3, [&] {
            for (const Instance* inst : instances) scratch_tables.build(*inst);
          }) * per_instance_us);

  out.add("dualapprox.estimate_us", "us",
          median_pass_seconds(budget_s, 3, [&] {
            for (std::size_t i = 0; i < count; ++i) {
              estimate_cmax_into(*instances[i], demt_options.dual_eps,
                                 tables[i], dual_ws, estimate);
            }
          }) * per_instance_us);

  KnapsackWorkspace knapsack_ws;
  std::vector<int> selected;
  out.add("core.batch_select_us", "us",
          median_pass_seconds(budget_s, 3, [&] {
            for (std::size_t i = 0; i < count; ++i) {
              for (const double length : lengths[i]) {
                build_batch_items_into(*instances[i], pending[i], length,
                                       build_options, tables[i], build_ws,
                                       batch);
                select_batch_into(batch, instances[i]->procs(), knapsack_ws,
                                  selected);
              }
            }
          }) * per_instance_us);

  out.add("core.knapsack_us", "us",
          median_pass_seconds(budget_s, 3, [&] {
            for (const Items& it : items) {
              max_weight_knapsack_into(it.costs.data(), it.weights.data(),
                                       static_cast<int>(it.costs.size()),
                                       instances[it.owner]->procs(),
                                       knapsack_ws, selected);
            }
          }) * per_instance_us);

  ListPassWorkspace list_ws;
  FlatPlacements list_out;
  const std::vector<BusyInterval> no_reservations;
  out.add("sched.list_pass_us", "us",
          median_pass_seconds(budget_s, 3, [&] {
            for (std::size_t i = 0; i < count; ++i) {
              list_ws.jobs.assign(list_jobs[i].begin(), list_jobs[i].end());
              list_schedule_into(instances[i]->procs(),
                                 instances[i]->num_tasks(), no_reservations,
                                 list_ws, list_out);
            }
          }) * per_instance_us);

  // The first compaction pass moves the schedules; later passes find a
  // fixpoint, as DEMT's own second pass does.
  CompactionBuffers compaction;
  out.add("sched.compaction_us", "us",
          median_pass_seconds(budget_s, 3, [&] {
            for (std::size_t i = 0; i < count; ++i) {
              (void)pull_forward_metrics(schedules[i], instances[i]->procs(),
                                         compaction, *instances[i]);
            }
          }) * per_instance_us);
}

void sweep_serving_kernels(const std::vector<const Instance*>& instances,
                           double budget_s, RunResult& out) {
  const DemtPolicy demt;
  const std::size_t count = instances.size();
  const int quantize = DecisionCacheOptions{}.quantize_steps;
  SignatureScratch sig_scratch;
  DecisionCacheOptions lookup_options;
  lookup_options.capacity = std::max<std::size_t>(16, 2 * count);
  lookup_options.shards = 1;
  DecisionCache cache(lookup_options);
  std::vector<InstanceSignature> signatures(count);
  {
    const std::unique_ptr<PolicyWorkspace> ws = demt.make_workspace();
    FlatPlacements schedule;
    for (std::size_t i = 0; i < count; ++i) {
      ws->last_diag = DemtDiagnostics{};
      demt.schedule_into(*instances[i], *ws, schedule);
      signatures[i] = canonical_signature(*instances[i], quantize, sig_scratch);
      cache.insert(signatures[i], demt.cache_key(), *instances[i], schedule,
                   ws->last_diag);
    }
  }
  const double per_instance_us = 1e6 / static_cast<double>(count);

  out.add("cache.signature_us", "us",
          median_pass_seconds(budget_s, 3, [&] {
            for (const Instance* inst : instances) {
              (void)canonical_signature(*inst, quantize, sig_scratch);
            }
          }) * per_instance_us);

  FlatPlacements replay;
  DemtDiagnostics replay_diag;
  std::size_t lookup_misses = 0;
  out.add("cache.lookup_hit_us", "us",
          median_pass_seconds(budget_s, 3, [&] {
            for (std::size_t i = 0; i < count; ++i) {
              if (!cache.lookup(signatures[i], demt.cache_key(),
                                *instances[i], replay, replay_diag)) {
                ++lookup_misses;
              }
            }
          }) * per_instance_us);
  if (lookup_misses != 0) {
    out.fail_check(fmt("decision cache missed %zu lookups of inserted "
                       "instances",
                       lookup_misses));
  }

  // Engine overhead: one-worker batches of (at most 16 of) the instances
  // through a timing policy; wall time minus the policy's own time.
  TimingPolicy timing(demt);
  EngineOptions engine_options;
  engine_options.workers = 1;
  engine_options.keep_schedules = false;
  SchedulerEngine engine(engine_options);
  std::vector<EngineRequest> requests;
  for (std::size_t i = 0; i < count && requests.size() < 16;
       i += std::max<std::size_t>(1, count / 16)) {
    EngineRequest request;
    request.instance = instances[i];
    request.policy = &timing;
    requests.push_back(request);
  }
  std::vector<EngineResult> results(requests.size());
  std::vector<double> overhead_us;
  const Clock::time_point begin = Clock::now();
  engine.schedule_batch_into(requests.data(), requests.size(),
                             results.data());  // warm the engine workspace
  while (overhead_us.size() < 3 ||
         seconds_between(begin, Clock::now()) < budget_s) {
    timing.reset();
    const Clock::time_point t0 = Clock::now();
    engine.schedule_batch_into(requests.data(), requests.size(),
                               results.data());
    const double wall = seconds_between(t0, Clock::now());
    overhead_us.push_back((wall - timing.totals().seconds) * 1e6 /
                          static_cast<double>(requests.size()));
  }
  out.add("engine.batch_overhead_us", "us", median(overhead_us));
}

void add_off_path_zeros(RunResult& out) {
  static constexpr const char* kPerLayer[][2] = {
      {"tasks.allotment_build_us", "us"},
      {"dualapprox.estimate_us", "us"},
      {"dualapprox.dual_tests_per_call", "count"},
      {"core.batch_select_us", "us"},
      {"core.knapsack_us", "us"},
      {"core.demt_us", "us"},
      {"core.demt_allocs_per_call", "count"},
      {"core.batches_per_call", "count"},
      {"core.shuffle_improvements_per_call", "count"},
      {"sched.list_pass_us", "us"},
      {"sched.compaction_us", "us"},
      {"engine.batch_overhead_us", "us"},
      {"serve.submit_us", "us"},
      {"serve.done_latency_p50_ms", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.policy_share", "ratio"},
      {"serve.allocs_per_request", "count"},
      {"cache.hit_rate", "ratio"},
      {"cache.evictions_per_1k", "count"},
      {"cache.signature_us", "us"},
      {"cache.lookup_hit_us", "us"},
      {"sim.policy_share", "ratio"},
      {"sim.jobs_per_batch", "count"},
      {"sim.allocs_per_arrival", "count"},
      {"trace.parse_mb_per_s", "MB/s"},
      {"trace.compile_us_per_job", "us"},
      {"trace.slo_record_ns", "ns"},
      {"workloads.generate_us", "us"},
      {"bench.tracing_overhead_pct", "%"},
  };
  std::string off_path;
  for (const auto& [name, unit] : kPerLayer) {
    const bool present =
        std::any_of(out.metrics.begin(), out.metrics.end(),
                    [name = name](const Metric& m) { return m.name == name; });
    if (present) continue;
    out.add(name, unit, 0.0);
    off_path += off_path.empty() ? name : std::string(" ") + name;
  }
  if (!off_path.empty()) out.note("not on this path (0): " + off_path);
}

// ------------------------------------------------------------- serving

namespace {

bool same_result(const EngineResult& served, const DirectResult& direct) {
  const DemtDiagnostics& a = served.diag;
  const DemtDiagnostics& b = direct.diag;
  return served.cmax == direct.cmax &&
         served.weighted_completion_sum == direct.wcs &&
         a.cmax_estimate == b.cmax_estimate &&
         a.cmax_lower_bound == b.cmax_lower_bound && a.grid_k == b.grid_k &&
         a.num_batches == b.num_batches && a.merged_stacks == b.merged_stacks &&
         a.shuffle_improvements == b.shuffle_improvements &&
         a.dual_tests == b.dual_tests;
}

}  // namespace

std::vector<DirectResult> direct_results(const std::vector<Instance>& catalog,
                                         RunResult& out) {
  const DemtPolicy demt;
  const std::unique_ptr<PolicyWorkspace> ws = demt.make_workspace();
  FlatPlacements flat;
  std::vector<DirectResult> direct;
  direct.reserve(catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    ws->last_diag = DemtDiagnostics{};
    demt.schedule_into(catalog[i], *ws, flat);
    DirectResult r;
    r.cmax = flat.cmax();
    r.wcs = flat.weighted_completion_sum(catalog[i]);
    r.diag = ws->last_diag;
    direct.push_back(r);
    CheckInput check;
    check.instance = &catalog[i];
    check.placements = &flat;
    check.reported_cmax = r.cmax;
    check.reported_wcs = r.wcs;
    const std::string error = check_schedule(check);
    if (!error.empty()) {
      out.fail_check(fmt("catalog instance %zu: %s", i, error.c_str()));
    }
  }
  return direct;
}

AsyncOptions async_options(const ServeShape& shape, DecisionCache* cache) {
  AsyncOptions options;
  options.shards = shape.shards;
  options.max_batch = shape.max_batch;
  options.flush_after_ms = shape.flush_after_ms;
  options.queue_capacity = 4 * shape.window;
  options.keep_schedules = false;
  options.cache = cache;
  return options;
}

DecisionCacheOptions cache_options(const ServeShape& shape) {
  DecisionCacheOptions options;
  options.capacity = shape.cache_capacity;
  options.shards = shape.cache_shards;
  return options;
}

ServeLoopStats serve_closed_loop(AsyncScheduler& async,
                                 const SchedulingPolicy& policy,
                                 const std::vector<Instance>& catalog,
                                 const std::vector<DirectResult>& direct,
                                 const std::vector<int>& sequence, int window,
                                 const ServeSamples& samples) {
  struct InFlight {
    Ticket ticket;
    Clock::time_point submitted;
    int index = 0;
  };
  // Kept across calls so a steady loop makes no allocation of its own.
  thread_local std::vector<InFlight> ring;
  if (ring.size() < static_cast<std::size_t>(window)) {
    ring.resize(static_cast<std::size_t>(window));
  }
  thread_local EngineResult result;
  ServeLoopStats stats;
  std::size_t head = 0;
  std::size_t live = 0;
  const auto cap = static_cast<std::size_t>(window);
  const auto retire = [&] {
    InFlight& f = ring[head];
    head = (head + 1) % cap;
    --live;
    const TicketStatus status = async.wait(f.ticket);
    if (samples.done_ms != nullptr) {
      samples.done_ms->push_back(async.latency_seconds(f.ticket) * 1e3);
    }
    (void)async.take(f.ticket, result);
    if (samples.latency_ms != nullptr) {
      samples.latency_ms->push_back(
          seconds_between(f.submitted, Clock::now()) * 1e3);
    }
    if (status != TicketStatus::Done) {
      ++stats.failed;
    } else if (!same_result(result,
                            direct[static_cast<std::size_t>(f.index)])) {
      ++stats.mismatched;
    }
  };
  const Clock::time_point begin = Clock::now();
  for (const int index : sequence) {
    if (live == cap) retire();
    InFlight& f = ring[(head + live) % cap];
    EngineRequest request;
    request.instance = &catalog[static_cast<std::size_t>(index)];
    request.policy = &policy;
    f.submitted = Clock::now();
    f.ticket = async.submit(request);
    if (samples.submit_us != nullptr) {
      samples.submit_us->push_back(
          seconds_between(f.submitted, Clock::now()) * 1e6);
    }
    f.index = index;
    if (!f.ticket.accepted()) {
      ++stats.failed;
      continue;
    }
    ++live;
  }
  while (live > 0) retire();
  stats.wall_s = seconds_between(begin, Clock::now());
  return stats;
}

TracedPhase serve_traced_phase(const ServeShape& shape,
                               const std::vector<Instance>& catalog,
                               const std::vector<DirectResult>& direct,
                               const std::vector<int>& sequence,
                               double budget_s, RunResult& out) {
  const DemtPolicy demt;
  TimingPolicy timing(demt);
  DecisionCache cache(cache_options(shape));
  AsyncScheduler async(async_options(shape, &cache));
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  const auto account = [&](const ServeLoopStats& s) {
    failed += s.failed;
    mismatched += s.mismatched;
  };
  account(serve_closed_loop(async, demt, catalog, direct, sequence,
                            shape.window, {}));
  account(serve_closed_loop(async, timing, catalog, direct, sequence,
                            shape.window, {}));  // warms the timed workspaces
  timing.reset();

  std::vector<double> submit_us;
  std::vector<double> done_ms;
  std::vector<double> untraced_per_s;
  std::vector<double> traced_per_s;
  std::uint64_t hits = 0, misses = 0, evictions = 0, completed = 0,
                batches = 0, allocs = 0, requests = 0;
  double traced_wall = 0.0;
  const Clock::time_point begin = Clock::now();
  while (traced_per_s.size() < 2 ||
         seconds_between(begin, Clock::now()) < budget_s) {
    const ServeLoopStats plain = serve_closed_loop(
        async, demt, catalog, direct, sequence, shape.window, {});
    account(plain);
    untraced_per_s.push_back(static_cast<double>(sequence.size()) /
                             plain.wall_s);
    submit_us.reserve(submit_us.size() + sequence.size());
    done_ms.reserve(done_ms.size() + sequence.size());
    const AsyncStats before = async.stats();
    const std::uint64_t allocs_before = process_allocs();
    const ServeLoopStats traced = serve_closed_loop(
        async, timing, catalog, direct, sequence, shape.window,
        ServeSamples{nullptr, &submit_us, &done_ms});
    allocs += process_allocs() - allocs_before;
    const AsyncStats after = async.stats();
    account(traced);
    traced_per_s.push_back(static_cast<double>(sequence.size()) /
                           traced.wall_s);
    traced_wall += traced.wall_s;
    requests += sequence.size();
    hits += after.cache_hits - before.cache_hits;
    misses += after.cache_misses - before.cache_misses;
    evictions += after.cache_evictions - before.cache_evictions;
    completed += after.completed - before.completed;
    batches += after.batches - before.batches;
  }
  if (failed != 0 || mismatched != 0) {
    out.fail_check(fmt("serving phase: %llu failed tickets, %llu results "
                       "unequal to the direct call",
                       static_cast<unsigned long long>(failed),
                       static_cast<unsigned long long>(mismatched)));
  }
  TracedPhase phase;
  phase.untraced_per_s = median(untraced_per_s);
  phase.traced_per_s = median(traced_per_s);
  phase.policy = timing.totals();
  const double n = static_cast<double>(std::max<std::uint64_t>(1, requests));
  out.add("serve.submit_us", "us", mean(submit_us));
  out.add("serve.done_latency_p50_ms", "ms", median(done_ms));
  out.add("serve.batch_size_mean", "count",
          static_cast<double>(completed) /
              static_cast<double>(std::max<std::uint64_t>(1, batches)));
  out.add("serve.policy_share", "ratio",
          phase.policy.seconds / (shape.shards * traced_wall));
  out.add("serve.allocs_per_request", "count",
          static_cast<double>(allocs) / n);
  out.add("cache.hit_rate", "ratio",
          static_cast<double>(hits) /
              static_cast<double>(std::max<std::uint64_t>(1, hits + misses)));
  out.add("cache.evictions_per_1k", "count",
          1000.0 * static_cast<double>(evictions) / n);
  return phase;
}

// ------------------------------------------------------ trace / stream

TapeOptions tape_options() {
  TapeOptions options;
  options.m = 64;
  options.moldable = true;
  options.lanes = 4;
  return options;
}

void make_trace_inputs(std::uint64_t seed, int jobs, TraceInputs& out) {
  SynthSwfOptions synth;
  synth.jobs = jobs;
  synth.max_procs = 64;
  // Mean offered work is about 0.9 * 21.7 procs * 1446 s per record, so a
  // 900 s mean gap offers about half the 64-processor machine.
  synth.mean_gap = 900.0;
  Rng rng(seed);
  SwfTrace synthesized;
  synthesize_swf(synth, rng, synthesized);
  std::ostringstream text;
  write_swf(synthesized, text);
  out.text = text.str();
  parse_swf(out.text, out.log);
  compile_tape(out.log, tape_options(), out.tape);
  out.whole = Instance(out.tape.m);
  out.releases.clear();
  for (const StreamArrival& arrival : out.tape.arrivals) {
    out.whole.add_task(arrival.task);
    out.releases.push_back(arrival.release);
  }
}

namespace {

void append_delivery(const StreamDelivery& d, FlatPlacements& all) {
  const FlatPlacements& p = d.placements;
  for (int e = 0; e < p.size(); ++e) {
    const auto u = static_cast<std::size_t>(e);
    all.start.push_back(p.start[u]);
    all.duration.push_back(p.duration[u]);
    all.proc_begin.push_back(static_cast<int>(all.proc_ids.size()));
    all.proc_count.push_back(p.proc_count[u]);
    for (int k = 0; k < p.proc_count[u]; ++k) {
      all.proc_ids.push_back(
          p.proc_ids[static_cast<std::size_t>(p.proc_begin[u] + k)]);
    }
  }
}

}  // namespace

ReplayStats replay_tape(const Tape& tape, int chunk,
                        const SchedulingPolicy& policy, PolicyWorkspace& ws,
                        OnlineStream& stream, StreamDelivery& delivery,
                        SloAccumulator& slo, std::vector<double>* feed_ms,
                        FlatPlacements* assembled) {
  static const std::vector<NodeReservation> kNoReservations;
  ReplayStats stats;
  stream.open(tape.m, kNoReservations);
  slo.open(tape_options().lanes, tape.arrivals.size());
  if (assembled != nullptr) assembled->reset(0);
  const std::size_t total = tape.arrivals.size();
  const auto absorb = [&](double seconds) {
    stats.busy_s += seconds;
    if (delivery.num_jobs() > 0 && feed_ms != nullptr) {
      feed_ms->push_back(seconds * 1e3);
    }
    if (delivery.first_job != stats.jobs && delivery.num_jobs() > 0) {
      stats.contiguous = false;
    }
    stats.jobs += delivery.num_jobs();
    stats.placements = placements_digest(delivery.placements, stats.placements);
    for (const double start : delivery.batch_starts) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &start, sizeof(bits));
      stats.starts = mix64(stats.starts, bits);
    }
    if (assembled != nullptr) append_delivery(delivery, *assembled);
  };
  const auto record = [&] {
    for (int e = 0; e < delivery.num_jobs(); ++e) {
      const TapeJobInfo& info =
          tape.info[static_cast<std::size_t>(delivery.first_job + e)];
      slo.record(info.lane, info.release, info.min_time,
                 delivery.completion[static_cast<std::size_t>(e)]);
    }
  };
  for (std::size_t fed = 0; fed < total;) {
    const std::size_t count =
        std::min(total - fed, static_cast<std::size_t>(chunk));
    const std::size_t next = fed + count;
    const double watermark = next < total ? tape.arrivals[next].release
                                          : tape.arrivals.back().release;
    const Clock::time_point t0 = Clock::now();
    stream.feed(tape.arrivals.data() + fed, count, watermark, policy, ws,
                delivery);
    record();
    absorb(seconds_between(t0, Clock::now()));
    fed = next;
  }
  const Clock::time_point t0 = Clock::now();
  stream.finish(policy, ws, delivery);
  record();
  absorb(seconds_between(t0, Clock::now()));
  stats.batches = delivery.num_batches;
  stats.cmax = delivery.cmax;
  stats.wcs = delivery.weighted_completion_sum;
  stats.wflow = delivery.weighted_flow_sum;
  return stats;
}

TracedPhase stream_traced_phase(const TraceInputs& inputs, int chunk,
                                std::uint64_t reference_digest,
                                double budget_s, RunResult& out,
                                std::vector<Instance>* capture) {
  const double kernel_budget = budget_s / 8;
  SwfTrace parsed;
  const double parse_s = median_pass_seconds(
      kernel_budget, 3, [&] { parse_swf(inputs.text, parsed); });
  out.add("trace.parse_mb_per_s", "MB/s",
          static_cast<double>(inputs.text.size()) / 1e6 / parse_s);
  Tape compiled;
  const double compile_s = median_pass_seconds(
      kernel_budget, 3, [&] { compile_tape(inputs.log, tape_options(), compiled); });
  out.add("trace.compile_us_per_job", "us",
          compile_s * 1e6 / static_cast<double>(inputs.log.jobs.size()));
  SloAccumulator records;
  const Tape& tape = inputs.tape;
  const double record_s = median_pass_seconds(kernel_budget, 3, [&] {
    records.open(tape_options().lanes, tape.info.size());
    for (const TapeJobInfo& info : tape.info) {
      records.record(info.lane, info.release, info.min_time,
                     info.release + 2.0 * info.min_time);
    }
  });
  out.add("trace.slo_record_ns", "ns",
          record_s * 1e9 / static_cast<double>(tape.info.size()));

  const DemtPolicy demt;
  TimingPolicy timing(demt);
  OnlineStream stream;
  StreamDelivery delivery;
  SloAccumulator slo;
  const std::unique_ptr<PolicyWorkspace> plain_ws = demt.make_workspace();
  const std::unique_ptr<PolicyWorkspace> timed_ws = timing.make_workspace();
  std::uint64_t mismatched = 0;
  const auto replay = [&](const SchedulingPolicy& policy,
                          PolicyWorkspace& ws) {
    const ReplayStats s = replay_tape(tape, chunk, policy, ws, stream,
                                      delivery, slo, nullptr, nullptr);
    if (s.digest() != reference_digest || !s.contiguous) ++mismatched;
    return s;
  };
  timing.set_capture(capture != nullptr);
  (void)replay(demt, *plain_ws);
  (void)replay(timing, *timed_ws);
  timing.set_capture(false);
  if (capture != nullptr) *capture = timing.captured();
  timing.reset();

  std::vector<double> untraced_per_s;
  std::vector<double> traced_per_s;
  double busy = 0.0;
  std::uint64_t jobs = 0, batches = 0, allocs = 0, arrivals = 0;
  const Clock::time_point begin = Clock::now();
  while (traced_per_s.size() < 2 ||
         seconds_between(begin, Clock::now()) < budget_s) {
    const ReplayStats plain = replay(demt, *plain_ws);
    untraced_per_s.push_back(static_cast<double>(tape.arrivals.size()) /
                             plain.busy_s);
    const std::uint64_t allocs_before = process_allocs();
    const ReplayStats traced = replay(timing, *timed_ws);
    allocs += process_allocs() - allocs_before;
    traced_per_s.push_back(static_cast<double>(tape.arrivals.size()) /
                           traced.busy_s);
    busy += traced.busy_s;
    jobs += static_cast<std::uint64_t>(traced.jobs);
    batches += static_cast<std::uint64_t>(traced.batches);
    arrivals += tape.arrivals.size();
  }
  if (mismatched != 0) {
    out.fail_check(fmt("stream phase: %llu replays differ from the checked "
                       "reference replay",
                       static_cast<unsigned long long>(mismatched)));
  }
  TracedPhase phase;
  phase.untraced_per_s = median(untraced_per_s);
  phase.traced_per_s = median(traced_per_s);
  phase.policy = timing.totals();
  out.add("sim.policy_share", "ratio", phase.policy.seconds / busy);
  out.add("sim.jobs_per_batch", "count",
          static_cast<double>(jobs) /
              static_cast<double>(std::max<std::uint64_t>(1, batches)));
  out.add("sim.allocs_per_arrival", "count",
          static_cast<double>(allocs) / static_cast<double>(arrivals));
  return phase;
}

}  // namespace perfbench
