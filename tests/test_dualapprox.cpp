#include "dualapprox/cmax_estimator.hpp"
#include "dualapprox/dual_test.hpp"

#include <gtest/gtest.h>

#include "workloads/generators.hpp"

namespace moldsched {
namespace {

Instance ideal_tasks(int n, int m, double seq) {
  Instance instance(m);
  for (int i = 0; i < n; ++i) {
    std::vector<double> times;
    for (int k = 1; k <= m; ++k) times.push_back(seq / k);
    instance.add_task(MoldableTask(std::move(times), 1.0));
  }
  return instance;
}

TEST(DualTest, AcceptsGenerousGuess) {
  const Instance instance = ideal_tasks(4, 4, 8.0);
  const auto result = dual_test(instance, 100.0);
  EXPECT_TRUE(result.feasible);
}

TEST(DualTest, RejectsImpossibleGuess) {
  // 4 ideal tasks of work 8 on 4 procs: total work 32, m*lambda = 4*1 = 4.
  const Instance instance = ideal_tasks(4, 4, 8.0);
  const auto result = dual_test(instance, 1.0);
  EXPECT_FALSE(result.feasible);
}

TEST(DualTest, RejectsWhenATaskCannotMeetLambda) {
  Instance instance(2);
  instance.add_task(MoldableTask({10.0, 9.0}, 1.0));  // min time 9
  EXPECT_FALSE(dual_test(instance, 5.0).feasible);
}

TEST(DualTest, MonotoneInLambda) {
  Rng rng(42);
  const Instance instance =
      generate_instance(WorkloadFamily::Mixed, 30, 16, rng);
  // Once accepted, every larger lambda must also be accepted.
  bool accepted = false;
  for (double lambda = 0.25; lambda < 600.0; lambda *= 1.4) {
    const bool now = dual_test(instance, lambda).feasible;
    if (accepted) EXPECT_TRUE(now) << "regressed at lambda=" << lambda;
    accepted = accepted || now;
  }
  EXPECT_TRUE(accepted);
}

TEST(DualTest, AssignmentCoversAllTasksWhenFeasible) {
  Rng rng(7);
  const Instance instance =
      generate_instance(WorkloadFamily::HighlyParallel, 20, 8, rng);
  const auto estimate = estimate_cmax(instance);
  const auto& assignment = estimate.partition.assignment;
  ASSERT_EQ(assignment.size(), 20u);
  for (const auto& a : assignment) {
    EXPECT_GE(a.allotment, 1);
    EXPECT_LE(a.allotment, 8);
  }
}

TEST(DualTest, ShelfOneAllotmentsFitTheMachine) {
  Rng rng(8);
  for (auto family : all_families()) {
    const Instance instance = generate_instance(family, 40, 16, rng);
    const auto estimate = estimate_cmax(instance);
    int shelf1 = 0;
    for (const auto& a : estimate.partition.assignment) {
      if (a.shelf == Shelf::Large) shelf1 += a.allotment;
    }
    EXPECT_LE(shelf1, 16) << family_name(family);
  }
}

TEST(DualTest, ShelfDurationsRespectDeadlines) {
  Rng rng(9);
  const Instance instance =
      generate_instance(WorkloadFamily::Cirne, 30, 12, rng);
  const auto estimate = estimate_cmax(instance);
  const double lambda = estimate.estimate;
  for (int i = 0; i < instance.num_tasks(); ++i) {
    const auto& a = estimate.partition.assignment[static_cast<std::size_t>(i)];
    const double t = instance.task(i).time(a.allotment);
    if (a.shelf == Shelf::Large) {
      EXPECT_LE(t, lambda * (1.0 + 1e-9));
    } else {
      EXPECT_LE(t, lambda / 2.0 * (1.0 + 1e-9));
    }
  }
}

TEST(DualTest, TotalWorkIsWithinBoundWhenAccepted) {
  Rng rng(10);
  const Instance instance =
      generate_instance(WorkloadFamily::WeaklyParallel, 25, 8, rng);
  const auto estimate = estimate_cmax(instance);
  EXPECT_LE(estimate.partition.total_work,
            8.0 * estimate.estimate * (1.0 + 1e-9));
}

TEST(DualTest, Validation) {
  const Instance instance = ideal_tasks(1, 2, 1.0);
  EXPECT_THROW(dual_test(instance, 0.0), std::invalid_argument);
  EXPECT_THROW(dual_test(instance, -2.0), std::invalid_argument);
}

TEST(CmaxEstimator, IdealTasksTightBound) {
  // n ideal tasks of work w each on m procs: optimal makespan = n*w/m
  // (perfect malleability). The dual bound must bracket it closely.
  const Instance instance = ideal_tasks(8, 4, 6.0);  // total work 48, opt 12
  const auto estimate = estimate_cmax(instance);
  EXPECT_NEAR(estimate.lower_bound, 12.0, 0.01);
  EXPECT_GE(estimate.estimate, estimate.lower_bound * (1.0 - 1e-9));
  EXPECT_LE(estimate.estimate, 12.5);
}

TEST(CmaxEstimator, SingleTask) {
  Instance instance(4);
  instance.add_task(MoldableTask({8.0, 5.0, 4.0, 3.5}, 1.0));
  const auto estimate = estimate_cmax(instance);
  // One task: optimum is its fastest execution time.
  EXPECT_NEAR(estimate.lower_bound, 3.5, 1e-6);
}

TEST(CmaxEstimator, LowerBoundNeverExceedsEstimate) {
  Rng rng(11);
  for (auto family : all_families()) {
    const Instance instance = generate_instance(family, 30, 10, rng);
    const auto estimate = estimate_cmax(instance);
    EXPECT_LE(estimate.lower_bound, estimate.estimate * (1.0 + 1e-9))
        << family_name(family);
    EXPECT_GT(estimate.lower_bound, 0.0);
  }
}

TEST(CmaxEstimator, SearchPrecision) {
  Rng rng(12);
  const Instance instance =
      generate_instance(WorkloadFamily::Mixed, 40, 16, rng);
  const auto tight = estimate_cmax(instance, 1e-6);
  EXPECT_LE(tight.estimate - tight.lower_bound, 2e-6 * tight.estimate);
}

TEST(CmaxEstimator, Validation) {
  Instance empty(4);
  EXPECT_THROW(estimate_cmax(empty), std::invalid_argument);
  const Instance instance = ideal_tasks(1, 2, 1.0);
  EXPECT_THROW(estimate_cmax(instance, 0.0), std::invalid_argument);
}

TEST(CmaxEstimator, RigidTasksSupported) {
  Instance instance(4);
  instance.add_task(MoldableTask({8.0, 5.0, 4.0, 3.5}, 1.0, /*min_procs=*/3));
  instance.add_task(MoldableTask({6.0, 3.0, 2.5, 2.0}, 1.0));
  const auto estimate = estimate_cmax(instance);
  EXPECT_GT(estimate.estimate, 0.0);
  const auto& a0 = estimate.partition.assignment[0];
  EXPECT_GE(a0.allotment, 3);
}

TEST(DualTest, WorkspaceFormBitIdenticalToPlainOverloads) {
  Rng rng(17);
  DualTestWorkspace ws;  // deliberately shared across every call below
  DualTestResult pooled;
  for (auto family : all_families()) {
    const Instance instance = generate_instance(family, 25, 12, rng);
    const InstanceAllotments tables(instance);
    const auto tight = estimate_cmax(instance).estimate;
    for (double factor : {0.4, 0.8, 1.0, 1.3, 2.5}) {
      const double lambda = tight * factor;
      const auto plain = dual_test(instance, lambda, tables);
      dual_test_into(instance, lambda, tables, ws, pooled);
      EXPECT_EQ(pooled.feasible, plain.feasible);
      EXPECT_EQ(pooled.total_work, plain.total_work);
      ASSERT_EQ(pooled.assignment.size(), plain.assignment.size());
      for (std::size_t i = 0; i < plain.assignment.size(); ++i) {
        EXPECT_EQ(pooled.assignment[i].shelf, plain.assignment[i].shelf);
        EXPECT_EQ(pooled.assignment[i].allotment,
                  plain.assignment[i].allotment);
      }
    }
  }
}

TEST(CmaxEstimator, WorkspaceFormKeepsTheSearchTrajectory) {
  Rng rng(18);
  DualTestWorkspace ws;
  for (auto family : all_families()) {
    const Instance instance = generate_instance(family, 30, 10, rng);
    const InstanceAllotments tables(instance);
    const auto plain = estimate_cmax(instance, 1e-4, tables);
    const auto pooled = estimate_cmax(instance, 1e-4, tables, ws);
    EXPECT_EQ(pooled.estimate, plain.estimate) << family_name(family);
    EXPECT_EQ(pooled.lower_bound, plain.lower_bound);
    // The regression anchor: pooling must not change the search at all.
    EXPECT_EQ(pooled.dual_tests, plain.dual_tests);
    ASSERT_EQ(pooled.partition.assignment.size(),
              plain.partition.assignment.size());
    for (std::size_t i = 0; i < plain.partition.assignment.size(); ++i) {
      EXPECT_EQ(pooled.partition.assignment[i].allotment,
                plain.partition.assignment[i].allotment);
    }
  }
}


TEST(DualTest, FusedSweepMatchesReferenceOnMixedOptionCounts) {
  // Monotone tasks (one shelf-1 option) next to non-monotone ones (several
  // options), tasks with no lambda/2 allotment (shelf-2 work +inf, so the
  // budgets below their first option are unreachable), and a task whose
  // canonical allotment is the whole machine.
  const int m = 9;
  Instance instance(m);
  std::vector<double> linear;
  for (int k = 1; k <= m; ++k) linear.push_back(36.0 / k);
  // Monotone; its canonical allotment is m for lambda in [4, 4.5).
  instance.add_task(MoldableTask(linear, 1.0));
  instance.add_task(MoldableTask({6, 3, 2, 1.5, 1.2, 1}, 2.0));
  instance.add_task(MoldableTask({8, 7, 2.5, 2.4, 1.1, 1.0, 3.0}, 1.0));
  instance.add_task(MoldableTask({4, 4.5, 1.8, 1.9, 0.9}, 3.0, 2));
  instance.add_task(MoldableTask({9, 5, 3.5, 3.4, 3.3}, 1.0, 3));
  instance.add_task(MoldableTask({1.5, 1.0, 0.8}, 4.0));
  const InstanceAllotments tables(instance);
  EXPECT_TRUE(tables.table(0).strictly_monotone());
  EXPECT_FALSE(tables.table(2).strictly_monotone());
  EXPECT_FALSE(tables.table(3).strictly_monotone());

  DualTestWorkspace ws;
  DualTestResult fused;
  bool saw_unreachable = false;
  bool saw_multi_option = false;
  bool saw_full_machine = false;
  bool saw_feasible = false;
  bool saw_rejected = false;
  for (double lambda = 1.5; lambda <= 24.0; lambda *= 1.07) {
    dual_test_into(instance, lambda, tables, ws, fused);
    const DualTestResult ref = dual_test_reference(instance, lambda);
    EXPECT_EQ(fused.feasible, ref.feasible) << "lambda " << lambda;
    EXPECT_EQ(fused.total_work, ref.total_work) << "lambda " << lambda;
    ASSERT_EQ(fused.assignment.size(), ref.assignment.size());
    for (std::size_t i = 0; i < ref.assignment.size(); ++i) {
      EXPECT_EQ(fused.assignment[i].shelf, ref.assignment[i].shelf);
      EXPECT_EQ(fused.assignment[i].allotment, ref.assignment[i].allotment);
    }
    (fused.feasible ? saw_feasible : saw_rejected) = true;
    // Coverage of the DP shapes the fused sweep must get right; only
    // meaningful when every task met lambda and the DP ran (an early
    // reject leaves the last option offset at 0).
    if (ws.opt_begin.back() == 0) continue;
    for (std::size_t i = 0; i + 1 < ws.opt_begin.size(); ++i) {
      if (ws.opt_begin[i + 1] - ws.opt_begin[i] > 1) saw_multi_option = true;
    }
    if (ws.opt_procs[0] == m) saw_full_machine = true;
    for (const std::int16_t p : ws.pick) {
      if (p == -2) saw_unreachable = true;
    }
  }
  EXPECT_TRUE(saw_feasible);
  EXPECT_TRUE(saw_rejected);
  EXPECT_TRUE(saw_multi_option);
  EXPECT_TRUE(saw_full_machine);
  EXPECT_TRUE(saw_unreachable);
}

}  // namespace
}  // namespace moldsched
