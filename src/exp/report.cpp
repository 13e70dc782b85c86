#include "exp/report.hpp"

#include <fstream>
#include <ostream>

#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/strfmt.hpp"

namespace moldsched {

FigureResult run_figure(const FigureConfig& config) {
  FigureResult result;
  result.config = config;
  ThreadPool pool(config.threads);
  const auto algorithms = standard_algorithms(config.demt);
  for (int n : config.ns) {
    PointConfig point;
    point.family = config.family;
    point.n = n;
    point.m = config.m;
    point.runs = config.runs;
    point.seed = config.seed;
    point.lp_options = config.lp_options;
    log_info(strfmt("%s: n=%d (%d runs)", config.title.c_str(), n,
                    config.runs));
    result.points.push_back(run_point(point, algorithms, &pool));
  }
  return result;
}

namespace {

void print_block(const FigureResult& result, std::ostream& out,
                 bool minsum_block) {
  const auto& order = result.points.front().algorithm_order;
  out << (minsum_block ? "## sum w_i C_i ratio (vs LP lower bound)\n"
                       : "## Cmax ratio (vs dual-approximation lower bound)\n");
  out << strfmt("%6s", "n");
  for (const auto& name : order) {
    out << strfmt("  %-22s", name.c_str());
  }
  out << '\n';
  for (const auto& point : result.points) {
    out << strfmt("%6d", point.config.n);
    for (const auto& name : order) {
      const auto& stats = point.stats.at(name);
      const auto& ratio = minsum_block ? stats.minsum_ratio : stats.cmax_ratio;
      out << strfmt("  %5.2f [%5.2f,%6.2f]", ratio.ratio(),
                    ratio.min_ratio(), ratio.max_ratio());
    }
    out << '\n';
  }
  out << '\n';
}

}  // namespace

void print_figure(const FigureResult& result, std::ostream& out) {
  if (result.points.empty()) {
    out << "(no points)\n";
    return;
  }
  out << "# " << result.config.title << '\n';
  out << strfmt("# m=%d processors, %d runs per point, families=%s\n",
                result.config.m, result.config.runs,
                std::string(family_name(result.config.family)).c_str());
  out << "# cell = ratio-of-sums average [per-run min, per-run max]\n\n";
  print_block(result, out, true);
  print_block(result, out, false);

  // Runtime block (the Figure 7 measurement, available for every figure).
  const auto& order = result.points.front().algorithm_order;
  out << "## scheduler wall-clock seconds (mean per call)\n";
  out << strfmt("%6s", "n");
  for (const auto& name : order) out << strfmt("  %-10s", name.c_str());
  out << '\n';
  for (const auto& point : result.points) {
    out << strfmt("%6d", point.config.n);
    for (const auto& name : order) {
      out << strfmt("  %-10.4f", point.stats.at(name).runtime_s.mean());
    }
    out << '\n';
  }
  out << '\n';
}

void write_figure_csv(const FigureResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"figure", "family", "m", "runs", "n", "algorithm",
              "minsum_ratio_avg", "minsum_ratio_min", "minsum_ratio_max",
              "cmax_ratio_avg", "cmax_ratio_min", "cmax_ratio_max",
              "runtime_mean_s", "lp_bound_mean", "cmax_lb_mean"});
  for (const auto& point : result.points) {
    for (const auto& name : point.algorithm_order) {
      const auto& stats = point.stats.at(name);
      auto ratio_fields = [](const RatioOfSums& r) {
        return std::vector<std::string>{strfmt("%.6f", r.ratio()),
                                        strfmt("%.6f", r.min_ratio()),
                                        strfmt("%.6f", r.max_ratio())};
      };
      const auto ms = ratio_fields(stats.minsum_ratio);
      const auto cm = ratio_fields(stats.cmax_ratio);
      csv.row({result.config.title,
               std::string(family_name(result.config.family)),
               strfmt("%d", point.config.m), strfmt("%d", point.config.runs),
               strfmt("%d", point.config.n), name, ms[0], ms[1], ms[2], cm[0],
               cm[1], cm[2], strfmt("%.6f", stats.runtime_s.mean()),
               strfmt("%.4f", point.lp_bound.mean()),
               strfmt("%.4f", point.cmax_lower_bound.mean())});
    }
  }
}

bool write_figure_gnuplot(const FigureResult& result,
                          const std::string& prefix) {
  if (result.points.empty()) return false;
  const auto& order = result.points.front().algorithm_order;

  std::ofstream dat(prefix + ".dat");
  if (!dat) return false;
  dat << "# n";
  for (const auto& name : order) {
    dat << ' ' << name << "_minsum " << name << "_cmax";
  }
  dat << '\n';
  for (const auto& point : result.points) {
    dat << point.config.n;
    for (const auto& name : order) {
      const auto& stats = point.stats.at(name);
      dat << ' ' << stats.minsum_ratio.ratio() << ' '
          << stats.cmax_ratio.ratio();
    }
    dat << '\n';
  }

  std::ofstream gp(prefix + ".gp");
  if (!gp) return false;
  gp << "# gnuplot reproduction of: " << result.config.title << "\n"
     << "set terminal pngcairo size 900,800\n"
     << "set output '" << prefix << ".png'\n"
     << "set multiplot layout 2,1\n"
     << "set key top right\n"
     << "set xlabel 'Number of tasks'\n";
  // Panel 1: minsum ratio, the paper's axis range [1, 8].
  gp << "set ylabel 'WiCi ratio'\nset yrange [1:8]\nplot";
  for (std::size_t a = 0; a < order.size(); ++a) {
    gp << (a ? ", " : " ") << "'" << prefix << ".dat' using 1:"
       << (2 + 2 * a) << " with linespoints title '" << order[a] << "'";
  }
  gp << "\n";
  // Panel 2: Cmax ratio, the paper's axis range [1, 3.5].
  gp << "set ylabel 'Cmax ratio'\nset yrange [1:3.5]\nplot";
  for (std::size_t a = 0; a < order.size(); ++a) {
    gp << (a ? ", " : " ") << "'" << prefix << ".dat' using 1:"
       << (3 + 2 * a) << " with linespoints title '" << order[a] << "'";
  }
  gp << "\nunset multiplot\n";
  return true;
}

}  // namespace moldsched
