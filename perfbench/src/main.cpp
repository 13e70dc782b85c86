// perfbench: the DEMT benchmark binary.
//
//   perfbench --workload offline_paper_mix|trace_stream|serve_recurring
//             --seed N --seconds S --trace 0|1
//   perfbench --reference [--seed N]
//
// A workload run prints notes, then one JSON line as the last line of
// standard output: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. The exit status is non-zero when any check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "layers.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       perfbench --reference [--seed N]\n"
               "workloads: offline_paper_mix trace_stream serve_recurring\n");
  return 2;
}

void print_json(const RunResult& r, bool correct) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += fmt(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool reference = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--reference") {
      reference = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else {
      return usage();
    }
  }
  try {
    if (reference) return run_reference(args.seed);
    if (!have_trace || !(args.seconds > 0.0)) return usage();
    RunResult result;
    if (args.workload == "offline_paper_mix") {
      run_offline_paper_mix(args, result);
    } else if (args.workload == "trace_stream") {
      run_trace_stream(args, result);
    } else if (args.workload == "serve_recurring") {
      run_serve_recurring(args, result);
    } else {
      return usage();
    }
    if (args.trace) add_off_path_zeros(result);
    for (const Metric& m : result.metrics) {
      if (!std::isfinite(m.value)) {
        result.fail_check("metric " + m.name + " is not finite");
      }
    }
    if (result.attempted == 0) result.fail_check("no operation attempted");
    for (const std::string& line : result.notes) {
      std::printf("# %s\n", line.c_str());
    }
    for (const std::string& line : result.errors) {
      std::fprintf(stderr, "check failed: %s\n", line.c_str());
    }
    const bool correct = result.errors.empty();
    print_json(result, correct);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
