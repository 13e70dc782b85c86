// Self-test of the benchmark's own checker and lower bounds: hand-built
// infeasible schedules must be rejected, a feasible one accepted, and the
// bounds must equal hand-computed values on tiny instances. Exit status 0
// when every case holds.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace moldsched;
using perfbench::CheckInput;
using perfbench::check_schedule;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

struct Entry {
  double start;
  double duration;
  std::vector<int> procs;
};

FlatPlacements placements(const std::vector<Entry>& entries) {
  FlatPlacements p;
  for (const Entry& e : entries) {
    p.start.push_back(e.start);
    p.duration.push_back(e.duration);
    p.proc_begin.push_back(static_cast<int>(p.proc_ids.size()));
    p.proc_count.push_back(static_cast<int>(e.procs.size()));
    p.proc_ids.insert(p.proc_ids.end(), e.procs.begin(), e.procs.end());
  }
  return p;
}

/// m = 2; task 0 runs 4 on one processor or 2.5 on two (weight 1), task 1
/// runs 2 or 1.2 (weight 3).
Instance tiny() {
  Instance inst(2);
  inst.add_task(MoldableTask({4.0, 2.5}, 1.0));
  inst.add_task(MoldableTask({2.0, 1.2}, 3.0));
  return inst;
}

std::string check(const Instance& inst, const FlatPlacements& p, double cmax,
                  double wcs, const std::vector<double>* releases = nullptr) {
  CheckInput in;
  in.instance = &inst;
  in.releases = releases;
  in.placements = &p;
  in.reported_cmax = cmax;
  in.reported_wcs = wcs;
  return check_schedule(in);
}

void checker_cases() {
  const Instance inst = tiny();
  // Feasible: task 0 on processor 0 over [0, 4), task 1 on 1 over [0, 2).
  const FlatPlacements ok = placements({{0, 4, {0}}, {0, 2, {1}}});
  expect(check(inst, ok, 4.0, 10.0).empty(), "feasible schedule accepted");
  // Both tasks on their two-processor allotments, back to back.
  expect(check(inst, placements({{1.2, 2.5, {0, 1}}, {0, 1.2, {0, 1}}}), 3.7,
               3.7 + 3.6)
             .empty(),
         "feasible back-to-back schedule accepted");

  const auto rejects = [&](const FlatPlacements& p, double cmax, double wcs,
                           const std::string& what,
                           const std::vector<double>* releases = nullptr) {
    expect(!check(inst, p, cmax, wcs, releases).empty(),
           "rejects " + what);
  };
  rejects(placements({{0, 4, {0}}, {1, 2, {0}}}), 4, 13,
          "two tasks overlapping on one processor");
  rejects(placements({{0, 2.5, {0, 1}}, {2, 2, {1}}}), 4, 14.5,
          "an overlap on one processor of a wider allotment");
  rejects(placements({{0, 4, {0}}, {0, 1.0, {1}}}), 4, 7,
          "a duration that is not the task's time");
  const std::vector<double> late{0.0, 1.0};
  rejects(ok, 4, 10, "a start before the release", &late);
  rejects(placements({{0, 2.5, {0, 0}}, {2.5, 2, {1}}}), 4.5, 16,
          "a processor listed twice");
  rejects(placements({{0, 4, {0}}, {0, 2, {5}}}), 4, 10,
          "a processor outside the machine");
  rejects(placements({{0, 4, {0}}, {0, 0, {}}}), 4, 4, "an unplaced task");
  rejects(placements({{0, 4, {0}}, {0, 2, {}}}), 4, 10,
          "an allotment of zero processors");
  rejects(placements({{0, 4, {0}}}), 4, 4, "a missing task");
  rejects(ok, 5.0, 10.0, "a wrong reported makespan");
  rejects(ok, 4.0, 11.0, "a wrong reported weighted completion");

  Instance rigid(3);
  rigid.add_task(MoldableTask({3.0, 2.0, 1.5}, 1.0, 2));
  expect(!check(rigid, placements({{0, 3, {0}}}), 3, 3).empty(),
         "rejects an allotment below min_procs");
  expect(check(rigid, placements({{0, 2, {1, 2}}}), 2, 2).empty(),
         "accepts an allotment at min_procs");
  Instance wide(2);
  wide.add_task(MoldableTask({3.0, 2.0}, 1.0));
  expect(!check(wide, placements({{0, 2, {0, 1, 2}}}), 2, 2).empty(),
         "rejects an allotment above m");
}

void bound_cases() {
  const Instance inst = tiny();
  // Least work 4 and 2: area bound 6 / 2 = 3 beats the fastest time 2.5.
  expect_near(perfbench::cmax_lower_bound(inst, nullptr), 3.0, "cmax bound");
  expect_near(perfbench::total_least_work(inst), 6.0, "least work");
  // sum w (r + fastest) = 2.5 + 3 * 1.2 = 6.1; Smith on lengths 2 and 1:
  // task 1 first, 3 * 1 + 1 * 3 = 6.
  expect_near(perfbench::minsum_lower_bound(inst, nullptr), 6.1,
              "minsum bound");
  // The flow bound drops the releases: 1 * 2.5 + 3 * 1.2.
  expect_near(perfbench::weighted_fastest_sum(inst), 6.1, "flow bound");
  const std::vector<double> releases{0.0, 2.0};
  expect_near(perfbench::cmax_lower_bound(inst, &releases), 3.2,
              "cmax bound with releases");
  expect_near(perfbench::minsum_lower_bound(inst, &releases), 12.1,
              "minsum bound with releases");

  // Three unit tasks on one processor: Smith gives 1 + 2 + 3 = 6.
  Instance chain(1);
  for (int i = 0; i < 3; ++i) chain.add_task(MoldableTask({1.0}, 1.0));
  expect_near(perfbench::minsum_lower_bound(chain, nullptr), 6.0,
              "squashed Smith bound");
  expect_near(perfbench::cmax_lower_bound(chain, nullptr), 3.0,
              "area bound on one processor");
  expect_near(perfbench::weighted_fastest_sum(chain), 3.0,
              "flow bound on one processor");
  // Four tasks of work 2 on two processors: 1 + 2 + 3 + 4 = 10, met by
  // running each on both processors in turn.
  Instance pairs(2);
  for (int i = 0; i < 4; ++i) pairs.add_task(MoldableTask({2.0, 1.0}, 1.0));
  expect_near(perfbench::minsum_lower_bound(pairs, nullptr), 10.0,
              "squashed Smith bound on two processors");
  expect_near(perfbench::cmax_lower_bound(pairs, nullptr), 4.0,
              "area bound on two processors");
}

void program_cases() {
  // DEMT's schedules pass the checker and respect both bounds.
  Rng rng(7);
  const DemtPolicy demt;
  const auto ws = demt.make_workspace();
  for (const WorkloadFamily family : all_families()) {
    const Instance inst = generate_instance(family, 30, 16, rng);
    FlatPlacements out;
    demt.schedule_into(inst, *ws, out);
    const double cmax = out.cmax();
    const double wcs = out.weighted_completion_sum(inst);
    const std::string error = check(inst, out, cmax, wcs);
    expect(error.empty(), "DEMT schedule accepted: " + error);
    expect(cmax >= perfbench::cmax_lower_bound(inst, nullptr),
           "DEMT makespan above the bound");
    expect(wcs >= perfbench::minsum_lower_bound(inst, nullptr),
           "DEMT minsum above the bound");
    // The digest chains across a split of the placements.
    FlatPlacements head, tail;
    const int cut = out.size() / 2;
    for (int e = 0; e < out.size(); ++e) {
      FlatPlacements& part = e < cut ? head : tail;
      const auto u = static_cast<std::size_t>(e);
      part.start.push_back(out.start[u]);
      part.duration.push_back(out.duration[u]);
      part.proc_begin.push_back(static_cast<int>(part.proc_ids.size()));
      part.proc_count.push_back(out.proc_count[u]);
      for (int k = 0; k < out.proc_count[u]; ++k) {
        part.proc_ids.push_back(
            out.proc_ids[static_cast<std::size_t>(out.proc_begin[u] + k)]);
      }
    }
    expect(perfbench::placements_digest(tail,
                                        perfbench::placements_digest(head)) ==
               perfbench::placements_digest(out),
           "digest chains across a split");
  }
}

}  // namespace

int main() {
  checker_cases();
  bound_cases();
  program_cases();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d self-test case(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all cases pass\n");
  return 0;
}
