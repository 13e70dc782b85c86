#include "core/demt.hpp"

#include <gtest/gtest.h>

#include "lp/minsum_bound.hpp"
#include "sched/validator.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

TEST(Demt, SingleTask) {
  Instance instance(4);
  instance.add_task(MoldableTask({8.0, 5.0, 4.0, 3.5}, 1.0));
  const auto result = demt_schedule(instance);
  require_valid(result.schedule, instance);
  EXPECT_TRUE(result.schedule.complete());
  // One task alone should finish near its fastest time (within the batch
  // structure's slack).
  EXPECT_LE(result.schedule.cmax(), 8.0 + 1e-9);
}

TEST(Demt, EmptyInstanceThrows) {
  Instance instance(4);
  EXPECT_THROW(demt_schedule(instance), std::invalid_argument);
}

class DemtFamilies : public ::testing::TestWithParam<WorkloadFamily> {};

INSTANTIATE_TEST_SUITE_P(
    Families, DemtFamilies,
    ::testing::Values(WorkloadFamily::WeaklyParallel,
                      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed,
                      WorkloadFamily::Cirne),
    [](const auto& info) { return std::string(family_name(info.param)); });

TEST_P(DemtFamilies, ProducesValidCompleteSchedules) {
  Rng rng(2004);
  for (int trial = 0; trial < 3; ++trial) {
    const Instance instance = generate_instance(GetParam(), 40, 16, rng);
    const auto result = demt_schedule(instance);
    EXPECT_TRUE(result.schedule.complete());
    require_valid(result.schedule, instance);
  }
}

TEST_P(DemtFamilies, MakespanWithinModestFactorOfLowerBound) {
  Rng rng(2005);
  const Instance instance = generate_instance(GetParam(), 60, 16, rng);
  const auto result = demt_schedule(instance);
  // The paper observes Cmax ratios around 2 and never much beyond; allow
  // slack for small machines.
  EXPECT_LE(result.schedule.cmax(), 3.5 * result.diag.cmax_lower_bound);
}

TEST_P(DemtFamilies, MinsumAboveLpBound) {
  Rng rng(2006);
  const Instance instance = generate_instance(GetParam(), 30, 8, rng);
  const auto result = demt_schedule(instance);
  const auto bound = minsum_lower_bound(instance);
  EXPECT_GE(result.schedule.weighted_completion_sum(instance),
            bound.bound * (1.0 - 1e-9));
}

TEST(Demt, DiagnosticsAreCoherent) {
  Rng rng(5);
  const Instance instance =
      generate_instance(WorkloadFamily::Mixed, 50, 16, rng);
  const auto result = demt_schedule(instance);
  EXPECT_GT(result.diag.cmax_estimate, 0.0);
  EXPECT_GE(result.diag.cmax_estimate, result.diag.cmax_lower_bound);
  EXPECT_GE(result.diag.grid_k, 0);
  EXPECT_GE(result.diag.num_batches, 1);
}

TEST(Demt, CompactionImprovesOrMatchesNaive) {
  Rng rng(6);
  const Instance instance =
      generate_instance(WorkloadFamily::HighlyParallel, 40, 16, rng);
  DemtOptions naive_options;
  naive_options.compaction = DemtOptions::Compaction::None;
  naive_options.shuffles = 0;
  DemtOptions pull_options;
  pull_options.compaction = DemtOptions::Compaction::PullForward;
  pull_options.shuffles = 0;
  DemtOptions list_options;
  list_options.compaction = DemtOptions::Compaction::List;
  list_options.shuffles = 0;

  const auto naive = demt_schedule(instance, naive_options);
  const auto pulled = demt_schedule(instance, pull_options);
  const auto listed = demt_schedule(instance, list_options);
  require_valid(naive.schedule, instance);
  require_valid(pulled.schedule, instance);
  require_valid(listed.schedule, instance);

  const double wc_naive = naive.schedule.weighted_completion_sum(instance);
  const double wc_pulled = pulled.schedule.weighted_completion_sum(instance);
  // Pull-forward only ever moves completions earlier.
  EXPECT_LE(wc_pulled, wc_naive + 1e-9);
  EXPECT_LE(pulled.schedule.cmax(), naive.schedule.cmax() + 1e-9);
  // The List stage keeps the better of {pulled, listed}: it can never lose
  // on BOTH criteria simultaneously.
  const double wc_listed = listed.schedule.weighted_completion_sum(instance);
  EXPECT_TRUE(wc_listed <= wc_pulled + 1e-9 ||
              listed.schedule.cmax() <= pulled.schedule.cmax() + 1e-9);
}

TEST(Demt, ShufflesNeverWorsenTheKeptSchedule) {
  Rng rng(7);
  const Instance instance =
      generate_instance(WorkloadFamily::Cirne, 50, 16, rng);
  DemtOptions no_shuffle;
  no_shuffle.shuffles = 0;
  DemtOptions with_shuffle;
  with_shuffle.shuffles = 16;

  const auto base = demt_schedule(instance, no_shuffle);
  const auto shuffled = demt_schedule(instance, with_shuffle);
  require_valid(shuffled.schedule, instance);
  // Acceptance rule: minsum must not increase, cmax must stay within the
  // budget (factor 1.0 by default).
  EXPECT_LE(shuffled.schedule.weighted_completion_sum(instance),
            base.schedule.weighted_completion_sum(instance) + 1e-9);
  EXPECT_LE(shuffled.schedule.cmax(), base.schedule.cmax() * 1.0 + 1e-9);
}

TEST(Demt, DeterministicForFixedSeed) {
  Rng rng(8);
  const Instance instance =
      generate_instance(WorkloadFamily::Mixed, 30, 8, rng);
  const auto a = demt_schedule(instance);
  const auto b = demt_schedule(instance);
  EXPECT_DOUBLE_EQ(a.schedule.cmax(), b.schedule.cmax());
  EXPECT_DOUBLE_EQ(a.schedule.weighted_completion_sum(instance),
                   b.schedule.weighted_completion_sum(instance));
}

TEST(Demt, MergeReducesMinsumOnManySmallTasks) {
  // Many tiny sequential tasks + a few wide ones: merging packs the small
  // ones tightly into early batches.
  Instance instance(8);
  for (int i = 0; i < 30; ++i) {
    instance.add_task(MoldableTask(
        std::vector<double>(8, 0.5), 5.0));  // no speedup, tiny, heavy
  }
  for (int i = 0; i < 4; ++i) {
    std::vector<double> times;
    for (int k = 1; k <= 8; ++k) times.push_back(16.0 / k);
    instance.add_task(MoldableTask(std::move(times), 1.0));
  }
  DemtOptions merged, unmerged;
  unmerged.merge_small_tasks = false;
  const auto with_merge = demt_schedule(instance, merged);
  const auto without_merge = demt_schedule(instance, unmerged);
  require_valid(with_merge.schedule, instance);
  require_valid(without_merge.schedule, instance);
  EXPECT_GT(with_merge.diag.merged_stacks, 0);
  EXPECT_LE(with_merge.schedule.weighted_completion_sum(instance),
            1.2 * without_merge.schedule.weighted_completion_sum(instance));
}

TEST(Demt, HandlesRigidTasksMixedIn) {
  Instance instance(8);
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    std::vector<double> times;
    for (int k = 1; k <= 8; ++k) times.push_back(6.0 / (0.5 * k + 0.5));
    instance.add_task(MoldableTask(std::move(times), 1.0 + i % 3));
  }
  instance.add_task(MoldableTask({8.0, 5.0, 4.0, 3.5, 3.2, 3.0, 2.9, 2.8},
                                 2.0, /*min_procs=*/4));
  const auto result = demt_schedule(instance);
  require_valid(result.schedule, instance);
  EXPECT_GE(result.schedule.placement(10).nprocs(), 4);
}

TEST(Demt, CmaxBudgetFactorAllowsTradeoff) {
  Rng rng(11);
  const Instance instance =
      generate_instance(WorkloadFamily::Cirne, 60, 16, rng);
  DemtOptions strict, loose;
  strict.cmax_budget_factor = 1.0;
  loose.cmax_budget_factor = 1.5;
  loose.shuffles = 32;
  const auto s = demt_schedule(instance, strict);
  const auto l = demt_schedule(instance, loose);
  require_valid(l.schedule, instance);
  // The loose run may trade makespan for minsum, but never beyond budget.
  EXPECT_LE(l.schedule.weighted_completion_sum(instance),
            s.schedule.weighted_completion_sum(instance) + 1e-9);
}

}  // namespace
}  // namespace moldsched
