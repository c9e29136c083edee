#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "arch/chips.hpp"
#include "bench.hpp"
#include "common/hash.hpp"
#include "common/run_control.hpp"
#include "core/codesign.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", Better::kLower},
    {"pass_s", "s", Better::kLower},
    {"throughput_per_s", "1/s", Better::kHigher},
    {"vectors_per_valve", "vec/valve", Better::kLower},
    {"peak_rss_mb", "MiB", Better::kLower},
};

const std::vector<MetricDef> kPerLayer = {
    {"sched.runs", "count", Better::kLower},
    {"sched.busy_s", "s", Better::kLower},
    {"sched.call_us", "us", Better::kLower},
    {"sched.sharing_rejections", "count", Better::kLower},
    {"sched.feasible_ratio", "ratio", Better::kHigher},
    {"core.evaluations", "count", Better::kLower},
    {"core.cache_hit_ratio", "ratio", Better::kHigher},
    {"core.shared_hit_ratio", "ratio", Better::kHigher},
    {"core.eval_busy_s", "s", Better::kLower},
    {"pso.outer_evaluations", "count", Better::kLower},
    {"pso.inner_evaluations", "count", Better::kLower},
    {"pso.bookkeeping_s", "s", Better::kLower},
    {"testgen.runs", "count", Better::kLower},
    {"testgen.busy_s", "s", Better::kLower},
    {"testgen.multiport_s", "s", Better::kLower},
    {"testgen.vectors", "count", Better::kLower},
    {"testgen.minimize_s", "s", Better::kLower},
    {"testgen.plan_s", "s", Better::kLower},
    {"ilp.nodes", "count", Better::kLower},
    {"ilp.pivots", "count", Better::kLower},
    {"ilp.lp_solves", "count", Better::kLower},
    {"ilp.warm_start_hit_ratio", "ratio", Better::kHigher},
    {"ilp.time_limited_solves", "count", Better::kLower},
    {"ilp.exact_minimize_ratio", "ratio", Better::kHigher},
    {"ilp.probe_nodes", "count", Better::kLower},
    {"ilp.probe_pivots", "count", Better::kLower},
    {"ilp.probe_finished", "count", Better::kHigher},
    {"sim.coverage_s", "s", Better::kLower},
    {"sim.signatures_s", "s", Better::kLower},
    {"sim.diagnosis_s", "s", Better::kLower},
    {"sim.faults_per_s", "1/s", Better::kHigher},
    {"workload.generate_s", "s", Better::kLower},
    {"workload.pruned_valves", "count", Better::kLower},
    {"arch.parse_us", "us", Better::kLower},
    {"json.parse_us", "us", Better::kLower},
    {"svc.queue_wait_ms", "ms", Better::kLower},
    {"svc.run_ms", "ms", Better::kLower},
    {"svc.transport_ms", "ms", Better::kLower},
    {"svc.p50_ms", "ms", Better::kLower},
    {"svc.p90_ms", "ms", Better::kLower},
    {"svc.p99_ms", "ms", Better::kLower},
    {"svc.max_rate_hz", "1/s", Better::kHigher},
    {"svc.jobs_shed", "count", Better::kLower},
    {"svc.jobs_retried", "count", Better::kLower},
    {"svc.generator_lag_ms", "ms", Better::kLower},
    {"net.connect_us", "us", Better::kLower},
    {"journal.append_ms", "ms", Better::kLower},
    {"quality.exec_ratio", "ratio", Better::kLower},
    {"quality.vectors_min", "count", Better::kLower},
    {"quality.resolution", "ratio", Better::kHigher},
    {"trace.overhead_pct", "%", Better::kLower},
};

bool Report::check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
  return ok;
}

void Report::note_passes(const std::string& workload,
                         const std::vector<double>& s) {
  std::string line = workload + " pass times [s]:";
  char value[32];
  for (double v : s) {
    std::snprintf(value, sizeof value, " %.3f", v);
    line += value;
  }
  note(line);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double summed_medians(const std::vector<std::vector<double>>& seconds) {
  double sum = 0.0;
  for (std::size_t i = 0; !seconds.empty() && i < seconds.front().size(); ++i) {
    std::vector<double> samples;
    for (const std::vector<double>& pass : seconds) samples.push_back(pass[i]);
    sum += median(std::move(samples));
  }
  return sum;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // 53 bits: job specs carry seeds as JSON integers.
  return mfd::splitmix64(seed ^ mfd::splitmix64(salt + 0x70657266ull)) >> 11;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SpanTotals::write(const mfd::TraceEvent& event) {
  if (event.kind == mfd::TraceEvent::Kind::kSpanEnd) {
    spans_[event.name] += event.duration;
  } else if (event.kind == mfd::TraceEvent::Kind::kCounter) {
    counters_[event.name] += event.value;
  }
}

double SpanTotals::span_seconds(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second;
}

std::int64_t SpanTotals::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void run_ilp_probe(const Args& args, Report& report) {
  // At a pool of two, mRNA_chip's second no-good solve explodes; the
  // deadline keeps the probe bounded, the counters keep the blow-up visible.
  const double deadline_s = args.tiny ? 0.5 : 3.0;
  SpanTotals totals;
  mfd::Tracer tracer(&totals);
  mfd::RunControl control;
  control.set_tracer(&tracer);
  control.set_timeout(deadline_s);
  mfd::testgen::PathPlanOptions options;
  options.control = &control;
  const auto pool = mfd::core::enumerate_dft_configurations(
      mfd::arch::make_mrna_chip(), 2, options);
  const bool finished =
      pool.size() == 2 && control.stop_observed() == mfd::StopReason::kNone;
  report.per_layer["ilp.probe_nodes"] =
      static_cast<double>(totals.counter("ilp.nodes"));
  report.per_layer["ilp.probe_pivots"] =
      static_cast<double>(totals.counter("ilp.pivots"));
  report.per_layer["ilp.probe_finished"] = finished ? 1.0 : 0.0;
  report.note("ilp probe: mRNA_chip pool 2 under a " +
              std::to_string(deadline_s) + " s deadline: " +
              std::to_string(pool.size()) + " configuration(s), " +
              std::to_string(totals.counter("ilp.nodes")) + " nodes, " +
              std::to_string(totals.counter("ilp.pivots")) + " pivots, " +
              (finished ? "finished" : "stopped by the deadline"));
}

}  // namespace perfbench
