// The three workloads. Each one builds its inputs from the seed, sets up
// several times and reports the median set-up time, runs whole rounds of
// the same operations for the requested time (single-threaded except
// serving), checks every schedule it emitted outside the timed phase, and
// reports medians over rounds. The traced run replaces the timed phase by
// the workload's traced phase and the kernel sweeps on its own instances.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/decision_cache.hpp"
#include "engine/engine.hpp"
#include "layers.hpp"
#include "lp/minsum_bound.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace moldsched;

namespace {

// Set-ups run at least kMinSetupReps times and for at least
// kMinSetupSeconds, so a short set-up is sampled over as much of the
// host's load as a long one.
constexpr int kMinSetupReps = 9;
constexpr double kMinSetupSeconds = 2.5;

/// Run `setup` repeatedly as above; return the median wall time.
template <typename Setup>
double median_setup_seconds(Setup&& setup) {
  std::vector<double> times;
  double total = 0.0;
  while (static_cast<int>(times.size()) < kMinSetupReps ||
         total < kMinSetupSeconds) {
    const Clock::time_point t0 = Clock::now();
    setup();
    times.push_back(seconds_between(t0, Clock::now()));
    total += times.back();
  }
  return median(times);
}

struct EndToEnd {
  std::vector<double> round_per_s;  ///< operations per second, per round
  std::vector<double> latency_ms;   ///< every operation's sample
  double cmax_ratio = 0.0;
  double minsum_ratio = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// Fewest timed rounds a run makes, however short --seconds is.
constexpr std::size_t kMinRounds = 5;

void add_end_to_end(const EndToEnd& e, RunResult& out) {
  out.add("throughput_per_s", "1/s", median(e.round_per_s));
  out.add("latency_p50_ms", "ms", quantile(e.latency_ms, 0.5));
  out.add("latency_p90_ms", "ms", quantile(e.latency_ms, 0.9));
  out.add("cmax_ratio", "ratio", e.cmax_ratio);
  out.add("minsum_ratio", "ratio", e.minsum_ratio);
  out.add("setup_s", "s", e.setup_s);
  out.add("peak_rss_mb", "MB", e.peak_rss_mb);
  out.note(fmt("%zu rounds, throughput q1/q3 %.1f/%.1f; %zu latency "
               "samples, p99 %.4f ms",
               e.round_per_s.size(), quantile(e.round_per_s, 0.25),
               quantile(e.round_per_s, 0.75), e.latency_ms.size(),
               quantile(e.latency_ms, 0.99)));
}

bool at_least(double value, double bound) {
  return value >= bound * (1.0 - 1e-9);
}

constexpr int kStreamChunk = 16;

}  // namespace

// ===================================================== offline_paper_mix

namespace {

constexpr int kOfflineM = 200;
constexpr int kOfflineSizes[] = {25, 50, 100, 200, 400};
constexpr int kOfflinePerCell = 8;
// The LP minsum bound is checked on every instance up to this size and on
// the first instance of each larger size: one LP solve takes 70-210 ms at
// n = 200 and 1-2.4 s at n = 400.
constexpr int kLpMaxN = 100;

struct OfflineState {
  std::vector<Instance> instances;
  const DemtPolicy policy;
  std::unique_ptr<PolicyWorkspace> ws;
  FlatPlacements out;
  std::vector<FlatPlacements> reference;
  std::vector<DemtDiagnostics> diags;
  std::vector<std::uint64_t> digests;
  double generate_s = 0.0;
};

/// Inputs, policy and workspace, and the untimed warm-up pass whose
/// outputs become the checked reference.
std::unique_ptr<OfflineState> offline_setup(std::uint64_t seed) {
  auto s = std::make_unique<OfflineState>();
  Rng rng(seed);
  const Clock::time_point t0 = Clock::now();
  for (const WorkloadFamily family : all_families()) {
    for (const int n : kOfflineSizes) {
      for (int rep = 0; rep < kOfflinePerCell; ++rep) {
        s->instances.push_back(generate_instance(family, n, kOfflineM, rng));
      }
    }
  }
  s->generate_s = seconds_between(t0, Clock::now());
  s->ws = s->policy.make_workspace();
  const std::size_t count = s->instances.size();
  s->reference.resize(count);
  s->diags.resize(count);
  s->digests.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    s->ws->last_diag = DemtDiagnostics{};
    s->policy.schedule_into(s->instances[i], *s->ws, s->reference[i]);
    s->diags[i] = s->ws->last_diag;
    s->digests[i] = placements_digest(s->reference[i]);
  }
  return s;
}

/// One round: every instance once, each call timed. Returns the busy time.
double offline_round(OfflineState& s, const SchedulingPolicy& policy,
                     PolicyWorkspace& ws, std::vector<double>* latency_ms,
                     RunResult& out, std::uint64_t& mismatched) {
  double busy = 0.0;
  for (std::size_t i = 0; i < s.instances.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    bool ok = true;
    try {
      ws.last_diag = DemtDiagnostics{};
      policy.schedule_into(s.instances[i], ws, s.out);
    } catch (const std::exception&) {
      ok = false;
    }
    const double dt = seconds_between(t0, Clock::now());
    busy += dt;
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      continue;
    }
    if (latency_ms != nullptr) latency_ms->push_back(dt * 1e3);
    if (placements_digest(s.out) != s.digests[i]) ++mismatched;
  }
  return busy;
}

void offline_checks(const OfflineState& s, RunResult& out, EndToEnd& e) {
  std::vector<double> cmax_ratio, minsum_ratio, certified_cmax,
      certified_minsum;
  std::vector<int> lp_sizes_done;
  for (std::size_t i = 0; i < s.instances.size(); ++i) {
    const Instance& inst = s.instances[i];
    const FlatPlacements& p = s.reference[i];
    const double cmax = p.cmax();
    const double wcs = p.weighted_completion_sum(inst);
    CheckInput check;
    check.instance = &inst;
    check.placements = &p;
    check.reported_cmax = cmax;
    check.reported_wcs = wcs;
    const std::string error = check_schedule(check);
    if (!error.empty()) out.fail_check(fmt("instance %zu: %s", i, error.c_str()));
    const double lb_cmax = cmax_lower_bound(inst, nullptr);
    const double lb_minsum = minsum_lower_bound(inst, nullptr);
    if (!at_least(cmax, lb_cmax) || !at_least(wcs, lb_minsum)) {
      out.fail_check(fmt("instance %zu beats a lower bound", i));
    }
    if (!at_least(cmax, s.diags[i].cmax_lower_bound)) {
      out.fail_check(fmt("instance %zu: certified makespan bound %.17g above "
                         "the makespan %.17g",
                         i, s.diags[i].cmax_lower_bound, cmax));
    }
    cmax_ratio.push_back(cmax / lb_cmax);
    minsum_ratio.push_back(wcs / lb_minsum);
    certified_cmax.push_back(cmax / s.diags[i].cmax_lower_bound);
    const int n = inst.num_tasks();
    if (n <= kLpMaxN || std::find(lp_sizes_done.begin(), lp_sizes_done.end(),
                                  n) == lp_sizes_done.end()) {
      lp_sizes_done.push_back(n);
      const double lp = moldsched::minsum_lower_bound(inst).bound;
      if (!at_least(wcs, lp)) {
        out.fail_check(fmt("instance %zu: certified minsum bound %.17g above "
                           "the minsum %.17g",
                           i, lp, wcs));
      }
      certified_minsum.push_back(wcs / lp);
    }
  }
  e.cmax_ratio = mean(cmax_ratio);
  e.minsum_ratio = mean(minsum_ratio);
  out.note(fmt("certified-bound ratios: cmax/DemtDiagnostics::cmax_lower_bound"
               "=%.4f over %zu, minsum/LP bound=%.4f over %zu",
               mean(certified_cmax), certified_cmax.size(),
               mean(certified_minsum), certified_minsum.size()));
}

}  // namespace

void run_offline_paper_mix(const RunArgs& args, RunResult& out) {
  EndToEnd e;
  std::unique_ptr<OfflineState> state;
  std::vector<double> generate_s;
  e.setup_s = median_setup_seconds([&] {
    state.reset();
    state = offline_setup(args.seed);
    generate_s.push_back(state->generate_s);
  });
  OfflineState& s = *state;
  std::uint64_t mismatched = 0;

  if (!args.trace) {
    const Clock::time_point begin = Clock::now();
    while (e.round_per_s.size() < kMinRounds ||
           seconds_between(begin, Clock::now()) < args.seconds) {
      const double busy =
          offline_round(s, s.policy, *s.ws, &e.latency_ms, out, mismatched);
      e.round_per_s.push_back(static_cast<double>(s.instances.size()) / busy);
    }
    e.peak_rss_mb = peak_rss_mb();
  } else {
    TimingPolicy timing(s.policy);
    const std::unique_ptr<PolicyWorkspace> timed_ws = timing.make_workspace();
    (void)offline_round(s, timing, *timed_ws, nullptr, out, mismatched);
    timing.reset();
    TracedPhase phase;
    std::vector<double> untraced, traced;
    const Clock::time_point begin = Clock::now();
    while (traced.size() < 2 ||
           seconds_between(begin, Clock::now()) < 0.5 * args.seconds) {
      const auto count = static_cast<double>(s.instances.size());
      untraced.push_back(
          count / offline_round(s, s.policy, *s.ws, nullptr, out, mismatched));
      traced.push_back(
          count / offline_round(s, timing, *timed_ws, nullptr, out, mismatched));
    }
    phase.untraced_per_s = median(untraced);
    phase.traced_per_s = median(traced);
    phase.policy = timing.totals();
    add_policy_metrics(phase, out);
    out.add("workloads.generate_us", "us",
            median(generate_s) * 1e6 / static_cast<double>(s.instances.size()));
    sweep_kernels(sample(s.instances, s.instances.size()), 0.05 * args.seconds,
                  out);
  }
  if (mismatched != 0) {
    out.fail_check(fmt("%llu calls differ from the checked warm-up schedule",
                       static_cast<unsigned long long>(mismatched)));
  }
  offline_checks(s, out, e);
  if (!args.trace) add_end_to_end(e, out);
}

// ========================================================== trace_stream

namespace {

constexpr int kTraceJobs = 6000;

struct StreamState {
  TraceInputs inputs;
  const DemtPolicy policy;
  std::unique_ptr<PolicyWorkspace> ws;
  OnlineStream stream;
  StreamDelivery delivery;
  SloAccumulator slo;
  FlatPlacements assembled;
  ReplayStats reference;
};

std::unique_ptr<StreamState> stream_setup(std::uint64_t seed) {
  auto s = std::make_unique<StreamState>();
  make_trace_inputs(seed, kTraceJobs, s->inputs);
  s->ws = s->policy.make_workspace();
  s->reference = replay_tape(s->inputs.tape, kStreamChunk, s->policy, *s->ws,
                             s->stream, s->delivery, s->slo, nullptr,
                             &s->assembled);
  return s;
}

void stream_checks(StreamState& s, RunResult& out, EndToEnd& e) {
  const Instance& whole = s.inputs.whole;
  const std::vector<double>& releases = s.inputs.releases;
  if (!s.reference.contiguous ||
      s.reference.jobs != whole.num_tasks()) {
    out.fail_check("stream deliveries are not one contiguous job sequence");
  }
  CheckInput check;
  check.instance = &whole;
  check.releases = &releases;
  check.placements = &s.assembled;
  check.reported_cmax = s.reference.cmax;
  check.reported_wcs = s.reference.wcs;
  const std::string error = check_schedule(check);
  if (!error.empty()) out.fail_check("stream schedule: " + error);

  const int n = whole.num_tasks();
  double wflow = 0.0;
  for (int t = 0; t < n; ++t) {
    wflow += whole.task(t).weight() *
             (s.assembled.finish(t) - releases[static_cast<std::size_t>(t)]);
  }
  if (std::fabs(wflow - s.reference.wflow) >
      1e-9 * std::max(1.0, std::fabs(wflow))) {
    out.fail_check(fmt("recomputed weighted flow %.17g, reported %.17g", wflow,
                       s.reference.wflow));
  }

  // The chunked deliveries must equal one whole-tape feed.
  const ReplayStats whole_feed = replay_tape(
      s.inputs.tape, static_cast<int>(s.inputs.tape.arrivals.size()),
      s.policy, *s.ws, s.stream, s.delivery, s.slo, nullptr, nullptr);
  if (whole_feed.digest() != s.reference.digest() ||
      whole_feed.cmax != s.reference.cmax ||
      whole_feed.wcs != s.reference.wcs ||
      whole_feed.wflow != s.reference.wflow ||
      whole_feed.batches != s.reference.batches) {
    out.fail_check("chunked stream deliveries differ from a whole-tape feed");
  }

  const double lb_cmax = cmax_lower_bound(whole, &releases);
  const double lb_minsum = minsum_lower_bound(whole, &releases);
  const double lb_wflow = weighted_fastest_sum(whole);
  if (!at_least(s.reference.cmax, lb_cmax) ||
      !at_least(s.reference.wcs, lb_minsum) || !at_least(wflow, lb_wflow)) {
    out.fail_check("stream schedule beats a lower bound");
  }
  // Release dates dominate the completion times of a long tape, so the
  // quality figures are those of the batches DEMT decided: each batch's
  // makespan and weighted completion sum over the batch's own bounds. The
  // weighted flow over its bound moves with the seed's queueing and is a
  // note.
  TimingPolicy capture(s.policy);
  const std::unique_ptr<PolicyWorkspace> capture_ws = capture.make_workspace();
  capture.set_capture(true);
  const ReplayStats captured =
      replay_tape(s.inputs.tape, kStreamChunk, capture, *capture_ws, s.stream,
                  s.delivery, s.slo, nullptr, nullptr);
  if (captured.digest() != s.reference.digest()) {
    out.fail_check("a replay through the delegating policy differs");
  }
  std::vector<double> batch_cmax, batch_minsum;
  for (std::size_t b = 0; b < capture.captured().size(); ++b) {
    const Instance& batch = capture.captured()[b];
    const FlatPlacements& p = capture.captured_placements()[b];
    CheckInput batch_check;
    batch_check.instance = &batch;
    batch_check.placements = &p;
    batch_check.reported_cmax = p.cmax();
    batch_check.reported_wcs = p.weighted_completion_sum(batch);
    const std::string batch_error = check_schedule(batch_check);
    if (!batch_error.empty()) {
      out.fail_check(fmt("stream batch %zu: %s", b, batch_error.c_str()));
    }
    const double lb_batch_cmax = cmax_lower_bound(batch, nullptr);
    const double lb_batch_minsum = minsum_lower_bound(batch, nullptr);
    if (!at_least(batch_check.reported_cmax, lb_batch_cmax) ||
        !at_least(batch_check.reported_wcs, lb_batch_minsum)) {
      out.fail_check(fmt("stream batch %zu beats a lower bound", b));
    }
    batch_cmax.push_back(batch_check.reported_cmax / lb_batch_cmax);
    batch_minsum.push_back(batch_check.reported_wcs / lb_batch_minsum);
  }
  e.cmax_ratio = mean(batch_cmax);
  e.minsum_ratio = mean(batch_minsum);
  out.note(fmt("%zu DEMT batches checked; weighted flow / sum w fastest time "
               "= %.4f",
               batch_cmax.size(), wflow / lb_wflow));

  // Offered load below saturation, and no backlog growing along the tape:
  // mean flow of the last quarter of jobs against the first.
  const double span = s.inputs.tape.span;
  const double load = total_least_work(whole) / (whole.procs() * span);
  if (!(load < 1.0)) {
    out.fail_check(fmt("offered load %.3f saturates the machine", load));
  }
  double first = 0.0, last = 0.0;
  for (int q = 0; q < n / 4; ++q) {
    const auto a = static_cast<std::size_t>(q);
    const auto b = static_cast<std::size_t>(n - 1 - q);
    first += s.assembled.finish(q) - releases[a];
    last += s.assembled.finish(static_cast<int>(b)) - releases[b];
  }
  out.note(fmt("tape: %d jobs, %d batches, offered load %.3f, mean flow "
               "first/last quarter %.1f/%.1f s",
               n, s.reference.batches, load, first / (n / 4), last / (n / 4)));
}

}  // namespace

void run_trace_stream(const RunArgs& args, RunResult& out) {
  EndToEnd e;
  std::unique_ptr<StreamState> state;
  e.setup_s = median_setup_seconds([&] {
    state.reset();
    state = stream_setup(args.seed);
  });
  StreamState& s = *state;
  const std::size_t arrivals = s.inputs.tape.arrivals.size();
  std::uint64_t mismatched = 0;
  if (!args.trace) {
    const Clock::time_point begin = Clock::now();
    while (e.round_per_s.size() < kMinRounds ||
           seconds_between(begin, Clock::now()) < args.seconds) {
      const ReplayStats r =
          replay_tape(s.inputs.tape, kStreamChunk, s.policy, *s.ws, s.stream,
                      s.delivery, s.slo, &e.latency_ms, nullptr);
      out.attempted += arrivals;
      if (r.digest() != s.reference.digest() || !r.contiguous) ++mismatched;
      e.round_per_s.push_back(static_cast<double>(arrivals) / r.busy_s);
    }
    e.peak_rss_mb = peak_rss_mb();
  } else {
    std::vector<Instance> batches;
    const TracedPhase phase =
        stream_traced_phase(s.inputs, kStreamChunk, s.reference.digest(),
                            0.5 * args.seconds, out, &batches);
    out.attempted += arrivals;
    add_policy_metrics(phase, out);
    sweep_kernels(sample(batches, 64), 0.05 * args.seconds, out);
  }
  if (mismatched != 0) {
    out.fail_check(fmt("%llu replays differ from the checked reference",
                       static_cast<unsigned long long>(mismatched)));
  }
  stream_checks(s, out, e);
  if (!args.trace) add_end_to_end(e, out);
}

// ======================================================= serve_recurring

namespace {

constexpr int kServeM = 64;
constexpr int kServeMinN = 50;
constexpr int kServeMaxN = 200;
constexpr int kCatalog = 256;
constexpr int kSequence = 800;
constexpr double kZipf = 1.0;

/// Catalog entry i (= Zipf rank i) has family i mod 4 and a size from a
/// fixed stride through [kServeMinN, kServeMaxN], so the hot head and the
/// missing tail hold the same sizes for every seed; only the tasks are
/// drawn from the seed.
std::vector<Instance> serve_catalog(std::uint64_t seed) {
  Rng rng(seed);
  const auto& families = all_families();
  constexpr int kSizes = kServeMaxN - kServeMinN + 1;
  std::vector<Instance> catalog;
  catalog.reserve(kCatalog);
  for (int i = 0; i < kCatalog; ++i) {
    const int n = kServeMinN + (i * 97) % kSizes;
    catalog.push_back(generate_instance(
        families[static_cast<std::size_t>(i) % families.size()], n, kServeM,
        rng));
  }
  return catalog;
}

/// Zipf(kZipf) over catalog ranks by inverse CDF.
std::vector<int> serve_sequence(std::uint64_t seed) {
  Rng rng(seed ^ 0x21BFULL);
  std::vector<double> cdf(kCatalog);
  double mass = 0.0;
  for (int k = 0; k < kCatalog; ++k) {
    mass += 1.0 / std::pow(static_cast<double>(k + 1), kZipf);
    cdf[static_cast<std::size_t>(k)] = mass;
  }
  std::vector<int> sequence(kSequence);
  for (int& index : sequence) {
    const double u = rng.uniform(0.0, mass);
    index = std::min<int>(
        kCatalog - 1,
        static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                         cdf.begin()));
  }
  return sequence;
}

struct ServeState {
  std::vector<Instance> catalog;
  std::vector<int> sequence;
  const DemtPolicy policy;
  std::unique_ptr<DecisionCache> cache;
  std::unique_ptr<AsyncScheduler> async;
};

}  // namespace

void run_serve_recurring(const RunArgs& args, RunResult& out) {
  const ServeShape shape;
  // The direct answers are checks, not set-up: computed once, untimed.
  const std::vector<DirectResult> direct =
      direct_results(serve_catalog(args.seed), out);
  EndToEnd e;
  std::unique_ptr<ServeState> state;
  std::vector<double> generate_s;
  std::uint64_t failed = 0, mismatched = 0;
  e.setup_s = median_setup_seconds([&] {
    state.reset();
    state = std::make_unique<ServeState>();
    const Clock::time_point t0 = Clock::now();
    state->catalog = serve_catalog(args.seed);
    generate_s.push_back(seconds_between(t0, Clock::now()));
    state->sequence = serve_sequence(args.seed);
    state->cache = std::make_unique<DecisionCache>(cache_options(shape));
    state->async = std::make_unique<AsyncScheduler>(
        async_options(shape, state->cache.get()));
    const ServeLoopStats warm =
        serve_closed_loop(*state->async, state->policy, state->catalog, direct,
                          state->sequence, shape.window, {});
    failed += warm.failed;
    mismatched += warm.mismatched;
  });
  ServeState& s = *state;

  if (!args.trace) {
    const AsyncStats before = s.async->stats();
    e.latency_ms.reserve(kSequence * 64);
    const Clock::time_point begin = Clock::now();
    while (e.round_per_s.size() < kMinRounds ||
           seconds_between(begin, Clock::now()) < args.seconds) {
      const ServeLoopStats r =
          serve_closed_loop(*s.async, s.policy, s.catalog, direct, s.sequence,
                            shape.window, ServeSamples{&e.latency_ms});
      out.attempted += s.sequence.size();
      out.failed += r.failed;
      mismatched += r.mismatched;
      e.round_per_s.push_back(static_cast<double>(s.sequence.size()) /
                              r.wall_s);
    }
    e.peak_rss_mb = peak_rss_mb();
    const AsyncStats after = s.async->stats();
    const std::uint64_t hits = after.cache_hits - before.cache_hits;
    const std::uint64_t misses = after.cache_misses - before.cache_misses;
    if (hits == 0 || misses == 0) {
      out.fail_check("the timed phase did not serve both hits and misses");
    }
    out.note(fmt("cache hits=%llu misses=%llu evictions=%llu batches=%llu",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(misses),
                 static_cast<unsigned long long>(after.cache_evictions -
                                                 before.cache_evictions),
                 static_cast<unsigned long long>(after.batches -
                                                 before.batches)));
  } else {
    const TracedPhase phase = serve_traced_phase(
        shape, s.catalog, direct, s.sequence, 0.5 * args.seconds, out);
    out.attempted += s.sequence.size();
    add_policy_metrics(phase, out);
    out.add("workloads.generate_us", "us",
            median(generate_s) * 1e6 / static_cast<double>(kCatalog));
    sweep_kernels(sample(s.catalog, 48), 0.05 * args.seconds, out);
    sweep_serving_kernels(sample(s.catalog, 48), 0.05 * args.seconds, out);
  }
  s.async->drain();
  if (failed != 0 || mismatched != 0) {
    out.fail_check(fmt("serving: %llu failed tickets in warm-up, %llu results "
                       "unequal to the direct call",
                       static_cast<unsigned long long>(failed),
                       static_cast<unsigned long long>(mismatched)));
  }
  // Quality over the catalog: every served result equals its instance's
  // direct schedule, which direct_results checked. (Weighting by the Zipf
  // request mix would let a few head instances swing the mean by seed.)
  std::vector<double> cmax_ratio, minsum_ratio;
  for (int i = 0; i < kCatalog; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const double lb_cmax = cmax_lower_bound(s.catalog[u], nullptr);
    const double lb_minsum = minsum_lower_bound(s.catalog[u], nullptr);
    if (!at_least(direct[u].cmax, lb_cmax) ||
        !at_least(direct[u].wcs, lb_minsum)) {
      out.fail_check(fmt("catalog instance %d beats a lower bound", i));
    }
    cmax_ratio.push_back(direct[u].cmax / lb_cmax);
    minsum_ratio.push_back(direct[u].wcs / lb_minsum);
  }
  e.cmax_ratio = mean(cmax_ratio);
  e.minsum_ratio = mean(minsum_ratio);
  if (!args.trace) add_end_to_end(e, out);
}

// ============================================================ reference

namespace {

/// Seconds for `threads` threads to each run the same spin loop.
double spin_seconds(int threads) {
  const auto spin = [] {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 200'000'000; ++i) x = x * 6364136223846793005ULL + 1;
    return x;
  };
  std::vector<std::thread> pool;
  std::vector<std::uint64_t> sink(static_cast<std::size_t>(threads));
  const Clock::time_point t0 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { sink[static_cast<std::size_t>(t)] = spin(); });
  }
  for (std::thread& thread : pool) thread.join();
  const double s = seconds_between(t0, Clock::now());
  return sink[0] == 0 ? s + 1e-12 : s;  // keeps the loop observable
}

}  // namespace

int run_reference(std::uint64_t seed) {
  std::printf("nproc: %u\n", std::thread::hardware_concurrency());
  std::printf("compiler: %s\n", PERFBENCH_COMPILER);
  std::printf("build: %s, flags: %s\n", PERFBENCH_BUILD, PERFBENCH_FLAGS);
  std::vector<double> speedups;
  for (int rep = 0; rep < 3; ++rep) {
    speedups.push_back(4.0 * spin_seconds(1) / spin_seconds(4));
  }
  std::printf("spin probe: 4 threads give %.2fx one thread (median of 3)\n",
              median(speedups));

  // The engine's multi-worker batch path on small requests.
  Rng rng(seed);
  std::vector<Instance> small;
  for (int i = 0; i < 48; ++i) {
    small.push_back(generate_instance(WorkloadFamily::Mixed, 60, 32, rng));
  }
  const DemtPolicy demt;
  for (const int workers : {1, 2, 4}) {
    EngineOptions options;
    options.workers = workers;
    options.keep_schedules = false;
    SchedulerEngine engine(options);
    std::vector<EngineRequest> requests(small.size());
    for (std::size_t i = 0; i < small.size(); ++i) {
      requests[i].instance = &small[i];
      requests[i].policy = &demt;
    }
    std::vector<EngineResult> results(small.size());
    engine.schedule_batch_into(requests.data(), requests.size(),
                               results.data());
    std::vector<double> per_s;
    for (int rep = 0; rep < 9; ++rep) {
      const Clock::time_point t0 = Clock::now();
      engine.schedule_batch_into(requests.data(), requests.size(),
                                 results.data());
      per_s.push_back(static_cast<double>(requests.size()) /
                      seconds_between(t0, Clock::now()));
    }
    std::printf("engine batch of 48 DEMT requests (Mixed n=60 m=32), %d "
                "workers: median %.0f req/s, min %.0f, max %.0f\n",
                workers, median(per_s), quantile(per_s, 0.0),
                quantile(per_s, 1.0));
  }

  // serve_recurring with one and with two shards.
  RunResult scratch;
  const std::vector<Instance> catalog = serve_catalog(seed);
  const std::vector<DirectResult> direct = direct_results(catalog, scratch);
  const std::vector<int> sequence = serve_sequence(seed);
  for (const int shards : {1, 2}) {
    ServeShape shape;
    shape.shards = shards;
    DecisionCache cache(cache_options(shape));
    AsyncScheduler async(async_options(shape, &cache));
    (void)serve_closed_loop(async, demt, catalog, direct, sequence,
                            shape.window, {});
    std::vector<double> per_s, latency_ms;
    latency_ms.reserve(sequence.size() * 10);
    for (int rep = 0; rep < 10; ++rep) {
      const ServeLoopStats r =
          serve_closed_loop(async, demt, catalog, direct, sequence,
                            shape.window, ServeSamples{&latency_ms});
      if (r.failed != 0 || r.mismatched != 0) {
        scratch.fail_check("reference serving run failed a check");
      }
      per_s.push_back(static_cast<double>(sequence.size()) / r.wall_s);
    }
    std::printf("serve_recurring, %d shard(s): median %.0f req/s, latency "
                "p50/p90/p99 %.3f/%.3f/%.3f ms\n",
                shards, median(per_s), quantile(latency_ms, 0.5),
                quantile(latency_ms, 0.9), quantile(latency_ms, 0.99));
  }
  for (const std::string& line : scratch.errors) {
    std::fprintf(stderr, "check failed: %s\n", line.c_str());
  }
  return scratch.errors.empty() ? 0 : 1;
}

}  // namespace perfbench
