// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt] [--tmp DIR]
//
// Runs one workload, checks its outputs, prints a metric table and, as the
// last line of stdout, one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits 0 whenever it prints the result line, also when a
// check failed (the line then says so); 1 when a workload throws, 2 on a
// usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*run)(const Args&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"codesign_paper", run_codesign_paper},
    {"fpva_test", run_fpva_test},
    {"campaign_batch", run_campaign_batch},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--tiny] [--corrupt] [--tmp DIR]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      args->tiny = true;
    } else if (arg == "--corrupt") {
      args->corrupt = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      args->workload = argv[++i];
    } else if (arg == "--seed") {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      args->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--tmp") {
      args->tmp_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

/// Prints the notes, failed checks, metric table and result line.
void emit(const Args& args, Report& report) {
  const auto& catalogue = args.trace ? kPerLayer : kEndToEnd;
  auto& values = args.trace ? report.per_layer : report.end_to_end;
  for (const MetricDef& def : catalogue) {
    if (!report.check(std::isfinite(values[def.name]),
                      std::string("metric ") + def.name + " is not finite")) {
      values[def.name] = 0.0;
    }
  }
  for (const std::string& line : report.notes) {
    std::printf("# %s\n", line.c_str());
  }
  constexpr std::size_t kShownFailures = 20;
  for (std::size_t i = 0; i < report.check_failures.size(); ++i) {
    if (i == kShownFailures) {
      std::printf("# ... and %zu more failed checks\n",
                  report.check_failures.size() - kShownFailures);
      break;
    }
    std::printf("# CHECK FAILED: %s\n", report.check_failures[i].c_str());
  }
  std::printf("# %-28s %16s  %-10s %s\n", "metric", "value", "unit", "better");
  std::string metrics;
  for (const MetricDef& def : catalogue) {
    const double value = values[def.name];
    std::printf("# %-28s %16.6f  %-10s %s\n", def.name, value, def.unit,
                def.better == Better::kLower ? "lower" : "higher");
    char entry[192];
    std::snprintf(entry, sizeof entry,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += entry;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.correct() ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage(argv[0]);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage(argv[0]);

  Report report;
  try {
    workload->run(args, report);
    report.end_to_end["peak_rss_mb"] = peak_rss_mb();
    if (args.trace) run_ilp_probe(args, report);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench %s: %s\n", workload->name, error.what());
    return 1;
  }
  emit(args, report);
  return 0;
}
