// Shared vocabulary of the repository benchmark: command-line arguments,
// the metric catalogue, the per-run report, timing helpers and an
// in-memory trace sink that totals spans and counters by name.
//
// Every workload fills one Report. End-to-end metrics are measured with
// the library's tracer off; the traced run (--trace 1) repeats the
// measurement with tracing on and fills the per-layer metrics instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Smallest inputs and one pass: the self-test size, not a measurement.
  bool tiny = false;
  /// Deliberately corrupts one output before the checks run, so the
  /// self-test can show the checks reject it.
  bool corrupt = false;
  /// Writable directory inside the checkout for temporary files (journals).
  std::string tmp_dir = ".bench_build/perfbench-tmp";
};

enum class Better { kLower, kHigher };

struct MetricDef {
  const char* name;
  const char* unit;
  Better better;
};

/// The metric catalogue; BENCHMARK.json lists the same names and units.
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

struct Report {
  /// Operations run and operations that did not complete successfully.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// One entry per failed output check.
  std::vector<std::string> check_failures;
  /// Metric values by name; units and directions come from the catalogue.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable notes printed above the result line.
  std::vector<std::string> notes;

  /// Records a failed check when `ok` is false; returns `ok`.
  bool check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
  /// Notes the wall time of every pass, in seconds.
  void note_passes(const std::string& workload, const std::vector<double>& s);
  [[nodiscard]] bool correct() const { return check_failures.empty(); }
};

/// Median / nearest-rank percentile of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double geomean(const std::vector<double>& values);

/// `seconds[p][i]` is operation i's wall time in pass p. Returns the sum
/// over the operations of each one's median over the passes: one pass with
/// slowdowns that hit a single pass filtered out.
[[nodiscard]] double summed_medians(
    const std::vector<std::vector<double>>& seconds);

/// Derives an independent seed for one input from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// High-water resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Untraced passes of a traced run, the baseline of trace.overhead_pct.
inline constexpr std::size_t kTracedBaselinePasses = 3;

/// True when another pass of the measurement loop, as long as the passes so
/// far took on average, still ends within the run's time budget. A traced
/// run makes kTracedBaselinePasses untraced passes before its traced one.
[[nodiscard]] inline bool another_pass(const Args& args, Clock::time_point start,
                                       std::size_t passes) {
  if (args.tiny) return false;
  if (args.trace) return passes < kTracedBaselinePasses;
  const double elapsed = seconds_since(start);
  return elapsed + elapsed / static_cast<double>(passes) <= args.seconds;
}

/// Times a workload's set-up in rounds of `repeats` calls of `make` (one
/// call at --tiny size), long enough that a scheduler hiccup does not decide
/// a round. first() runs the first round and returns its last product, the
/// one the measurement uses; round() runs one more round and discards what
/// it makes. Workloads call round() after every measured operation, so the
/// rounds are spread over the whole run and their median, setup_s, sees the
/// same machine as the passes do.
template <typename Make>
class SetupRounds {
 public:
  SetupRounds(const Args& args, int repeats, Make make)
      : tiny_(args.tiny), repeats_(args.tiny ? 1 : repeats),
        make_(std::move(make)) {}

  auto first() {
    const Clock::time_point start = Clock::now();
    auto product = make_();
    for (int i = 1; i < repeats_; ++i) product = make_();
    rounds_.push_back(seconds_since(start));
    return product;
  }

  void round() {
    if (tiny_) return;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < repeats_; ++i) static_cast<void>(make_());
    rounds_.push_back(seconds_since(start));
  }

  [[nodiscard]] double median_s() const { return median(rounds_); }

 private:
  bool tiny_;
  int repeats_;
  Make make_;
  std::vector<double> rounds_;
};

/// Trace sink that keeps everything in memory: total seconds per span name
/// and total value per counter name. Attach through mfd::Tracer.
class SpanTotals final : public mfd::TraceSink {
 public:
  void write(const mfd::TraceEvent& event) override;
  [[nodiscard]] double span_seconds(const std::string& name) const;
  [[nodiscard]] std::int64_t counter(const std::string& name) const;

 private:
  std::map<std::string, double> spans_;
  std::map<std::string, std::int64_t> counters_;
};

/// Bounded ILP probe of the traced run: enumerate_dft_configurations on
/// mRNA_chip with a pool of two under a fixed deadline. Fills
/// ilp.probe_nodes, ilp.probe_pivots and ilp.probe_finished.
void run_ilp_probe(const Args& args, Report& report);

/// Service probe of campaign_batch's traced run: a loopback JobDaemon
/// under open-loop traffic. Fills the svc.*, net.*, json.* and arch.*
/// per-layer metrics.
void run_service_probe(const Args& args, Report& report);

void run_codesign_paper(const Args& args, Report& report);
void run_fpva_test(const Args& args, Report& report);
void run_campaign_batch(const Args& args, Report& report);

}  // namespace perfbench
