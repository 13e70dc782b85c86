/// \file report.hpp
/// Figure-style reporting: the same series the paper plots (per-algorithm
/// min/avg/max performance ratio against task count, one block per
/// criterion), in aligned text and optional CSV.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace moldsched {

struct FigureConfig {
  std::string title;                    ///< e.g. "Figure 3 - weakly parallel"
  WorkloadFamily family = WorkloadFamily::WeaklyParallel;
  std::vector<int> ns = {25, 50, 100, 150, 200, 250, 300, 350, 400};
  int m = 200;
  int runs = 40;
  std::uint64_t seed = 20040627;
  DemtOptions demt;
  SimplexOptions lp_options;
  unsigned threads = 0;  ///< 0 = hardware concurrency
};

struct FigureResult {
  FigureConfig config;
  std::vector<PointResult> points;  ///< one per n, in config order
};

/// Run every point of a figure (prints progress to the log).
[[nodiscard]] FigureResult run_figure(const FigureConfig& config);

/// Paper-style text report: a "sum w_i C_i ratio" block and a "Cmax ratio"
/// block, rows = n, one avg(min..max) column triple per algorithm.
void print_figure(const FigureResult& result, std::ostream& out);

/// Machine-readable CSV: one row per (n, algorithm) with both criteria.
void write_figure_csv(const FigureResult& result, std::ostream& out);

/// Emit a gnuplot reproduction of the paper's two-panel figure: writes
/// `<prefix>.dat` (whitespace table) and `<prefix>.gp` (script producing
/// `<prefix>.png` with the minsum and Cmax panels). Returns false when the
/// files cannot be created.
bool write_figure_gnuplot(const FigureResult& result,
                          const std::string& prefix);

}  // namespace moldsched
