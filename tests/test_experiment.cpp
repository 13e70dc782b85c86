#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/report.hpp"

namespace moldsched {
namespace {

PointConfig tiny_point() {
  PointConfig config;
  config.family = WorkloadFamily::HighlyParallel;
  config.n = 10;
  config.m = 8;
  config.runs = 3;
  config.seed = 7;
  return config;
}

TEST(Experiment, RunPointProducesAllAlgorithms) {
  const auto algorithms = standard_algorithms();
  const auto result = run_point(tiny_point(), algorithms);
  EXPECT_EQ(result.algorithm_order.size(), 6u);
  for (const auto& name : result.algorithm_order) {
    const auto& stats = result.stats.at(name);
    EXPECT_EQ(stats.cmax_ratio.count(), 3u);
    EXPECT_EQ(stats.minsum_ratio.count(), 3u);
    // Ratios against lower bounds are at least 1 (up to tolerance).
    EXPECT_GE(stats.cmax_ratio.min_ratio(), 1.0 - 1e-6) << name;
    EXPECT_GE(stats.minsum_ratio.min_ratio(), 1.0 - 1e-6) << name;
  }
}

TEST(Experiment, ParallelAndSerialAgree) {
  const auto algorithms = algorithms_by_name({"DEMT", "SAF"});
  const auto serial = run_point(tiny_point(), algorithms, nullptr);
  ThreadPool pool(4);
  const auto parallel = run_point(tiny_point(), algorithms, &pool);
  for (const auto& name : serial.algorithm_order) {
    EXPECT_DOUBLE_EQ(serial.stats.at(name).cmax_ratio.ratio(),
                     parallel.stats.at(name).cmax_ratio.ratio())
        << name;
    EXPECT_DOUBLE_EQ(serial.stats.at(name).minsum_ratio.ratio(),
                     parallel.stats.at(name).minsum_ratio.ratio())
        << name;
  }
}

TEST(Experiment, DeterministicAcrossCalls) {
  const auto algorithms = algorithms_by_name({"Gang"});
  const auto a = run_point(tiny_point(), algorithms);
  const auto b = run_point(tiny_point(), algorithms);
  EXPECT_DOUBLE_EQ(a.stats.at("Gang").cmax_ratio.ratio(),
                   b.stats.at("Gang").cmax_ratio.ratio());
}

TEST(Experiment, UnknownAlgorithmThrows) {
  EXPECT_THROW(algorithms_by_name({"Nope"}), std::invalid_argument);
}

TEST(Experiment, Validation) {
  PointConfig config = tiny_point();
  config.runs = 0;
  EXPECT_THROW(run_point(config, standard_algorithms()),
               std::invalid_argument);
  EXPECT_THROW(run_point(tiny_point(), {}), std::invalid_argument);
}

TEST(Report, FigureRunsAndPrints) {
  FigureConfig config;
  config.title = "smoke figure";
  config.family = WorkloadFamily::Mixed;
  config.ns = {8, 12};
  config.m = 8;
  config.runs = 2;
  config.threads = 2;
  const auto result = run_figure(config);
  ASSERT_EQ(result.points.size(), 2u);

  std::ostringstream text;
  print_figure(result, text);
  EXPECT_NE(text.str().find("smoke figure"), std::string::npos);
  EXPECT_NE(text.str().find("Cmax ratio"), std::string::npos);
  EXPECT_NE(text.str().find("DEMT"), std::string::npos);

  std::ostringstream csv;
  write_figure_csv(result, csv);
  // Header + 2 points x 6 algorithms = 13 lines.
  int lines = 0;
  for (char c : csv.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 13);

  // Gnuplot emission: a .dat with one row per n and a .gp referencing it.
  const std::string prefix = "/tmp/moldsched_test_fig";
  ASSERT_TRUE(write_figure_gnuplot(result, prefix));
  std::ifstream dat(prefix + ".dat");
  ASSERT_TRUE(dat.good());
  int dat_lines = 0;
  std::string line;
  while (std::getline(dat, line)) ++dat_lines;
  EXPECT_EQ(dat_lines, 3);  // header + 2 points
  std::ifstream gp(prefix + ".gp");
  ASSERT_TRUE(gp.good());
  std::stringstream gp_content;
  gp_content << gp.rdbuf();
  EXPECT_NE(gp_content.str().find("multiplot"), std::string::npos);
  EXPECT_NE(gp_content.str().find("Cmax ratio"), std::string::npos);
  std::remove((prefix + ".dat").c_str());
  std::remove((prefix + ".gp").c_str());
}

TEST(Report, GnuplotRejectsEmptyResult) {
  FigureResult empty;
  EXPECT_FALSE(write_figure_gnuplot(empty, "/tmp/moldsched_empty"));
}

}  // namespace
}  // namespace moldsched
