// codesign_paper: the paper's codesign flow on its benchmark chips, closed
// loop, one job at a time, one evaluation thread. IVD_chip and RA30_chip
// run at Table 1's configuration pool of three; mRNA_chip runs at a pool
// of one because its second no-good solve exceeds the ILP's per-solve
// wall-clock limit (see run_ilp_probe), which would make results depend on
// machine speed. The scheduler does most of the work here.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "arch/chips.hpp"
#include "arch/serialize.hpp"
#include "bench.hpp"
#include "common/run_control.hpp"
#include "core/codesign.hpp"
#include "sched/assay.hpp"
#include "sched/scheduler.hpp"
#include "sim/pressure.hpp"

namespace perfbench {
namespace {

constexpr int kOuterIterations = 2;
/// Set-up calls per timed round (one call takes about 0.15 ms).
constexpr int kSetupRepeats = 130;

struct Job {
  mfd::arch::Biochip chip;
  mfd::sched::Assay assay;
  mfd::core::CodesignOptions options;
  [[nodiscard]] std::string label() const {
    return chip.name() + "/" + assay.name();
  }
};

struct Pass {
  double wall_s = 0.0;  ///< The jobs' times, summed.
  std::vector<double> job_s;
  std::vector<mfd::core::CodesignResult> results;
};

/// Builds the job list from the paper's chips, read back from their text
/// form as a client of the service would send them.
std::vector<Job> make_jobs(const Args& args, std::vector<double>* parse_us) {
  std::vector<Job> jobs;
  const std::vector<mfd::sched::Assay> assays =
      mfd::sched::make_paper_assays();
  for (const mfd::arch::Biochip& built : mfd::arch::make_paper_chips()) {
    const std::string& name = built.name();
    if (name == "figure4_chip") continue;
    if (args.tiny && name != "IVD_chip") continue;
    const std::string text = mfd::arch::chip_to_string(built);
    const Clock::time_point parse_start = Clock::now();
    mfd::arch::Biochip chip = mfd::arch::chip_from_string(text);
    parse_us->push_back(seconds_since(parse_start) * 1e6);
    for (const mfd::sched::Assay& assay : assays) {
      if (args.tiny && assay.name() != "IVD") continue;
      Job job{chip, assay, {}};
      job.options.outer_iterations = args.tiny ? 1 : kOuterIterations;
      job.options.config_pool_size =
          (args.tiny || name == "mRNA_chip") ? 1 : 3;
      job.options.threads = 1;
      job.options.seed = mix_seed(args.seed, jobs.size());
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// Runs every job once; `after_job` runs after each job, outside the times.
Pass run_pass(const std::vector<Job>& jobs, mfd::RunControl* control,
              const std::function<void()>& after_job = [] {}) {
  Pass pass;
  for (const Job& job : jobs) {
    mfd::core::CodesignOptions options = job.options;
    options.control = control;
    const Clock::time_point job_start = Clock::now();
    pass.results.push_back(
        mfd::core::run_codesign(job.chip, job.assay, options));
    pass.job_s.push_back(seconds_since(job_start));
    pass.wall_s += pass.job_s.back();
    after_job();
  }
  return pass;
}

/// Output checks on one pass; returns the number of jobs that failed.
int check_pass(const std::vector<Job>& jobs, Pass& pass, bool corrupt,
               Report& report) {
  if (corrupt && !pass.results.empty()) {
    auto& vectors = pass.results.front().tests.vectors;
    vectors.resize(vectors.size() / 2);
  }
  int failed = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const mfd::core::CodesignResult& r = pass.results[i];
    const std::string who = "codesign " + job.label() + ": ";
    if (!report.check(r.ok(), who + "job not ok: " + r.status.to_string()) ||
        !report.check(r.chip.has_value() && r.schedule.has_value(),
                      who + "no result chip")) {
      ++failed;
      continue;
    }
    const mfd::sched::Schedule replay =
        mfd::sched::schedule_assay(*r.chip, job.assay, job.options.sched);
    report.check(replay.feasible && r.schedule->feasible,
                 who + "result schedule infeasible");
    report.check(mfd::sim::evaluate_coverage(*r.chip, r.tests.vectors)
                     .complete(),
                 who + "result test suite is not coverage-complete");
    report.check(r.exec_dft_optimized <= r.exec_dft_unoptimized,
                 who + "optimized execution time exceeds the unoptimized one");
    for (std::size_t k = 1; k < r.convergence.size(); ++k) {
      if (!report.check(r.convergence[k] <= r.convergence[k - 1],
                        who + "convergence is not monotone")) {
        break;
      }
    }
  }
  return failed;
}

void fill_layers(const std::vector<Job>& jobs, const Pass& pass,
                 const SpanTotals& totals, Report& report) {
  mfd::EvalStats stats;
  double vectors = 0.0;
  int time_limited = 0;
  std::vector<double> ratios;
  std::vector<double> call_us;
  double rejections = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const mfd::core::CodesignResult& r = pass.results[i];
    stats += r.stats;
    vectors += r.tests.size();
    for (const mfd::testgen::PathPlan& plan : r.pool) {
      if (!plan.status.ok() ||
          plan.method == mfd::testgen::PathPlan::Method::kGreedyFallback) {
        ++time_limited;
      }
    }
    if (r.exec_original > 0.0) {
      ratios.push_back(r.exec_dft_optimized / r.exec_original);
    }
    if (r.chip.has_value()) {
      const Clock::time_point start = Clock::now();
      const mfd::sched::Schedule replay = mfd::sched::schedule_assay(
          *r.chip, jobs[i].assay, jobs[i].options.sched);
      call_us.push_back(seconds_since(start) * 1e6);
      rejections += replay.sharing_rejections;
    }
  }
  const double plan_s = totals.span_seconds("enumerate_configurations");
  auto& m = report.per_layer;
  m["sched.runs"] = static_cast<double>(stats.scheduler_runs);
  m["sched.busy_s"] = stats.schedule_seconds;
  m["sched.call_us"] = median(call_us);
  m["sched.sharing_rejections"] = rejections;
  m["sched.feasible_ratio"] =
      stats.scheduler_runs == 0
          ? 0.0
          : static_cast<double>(stats.testgen_runs) /
                static_cast<double>(stats.scheduler_runs);
  m["core.evaluations"] = static_cast<double>(stats.evaluations);
  m["core.cache_hit_ratio"] = stats.hit_rate();
  m["core.eval_busy_s"] = stats.eval_seconds;
  m["pso.outer_evaluations"] = static_cast<double>(stats.outer_evaluations);
  m["pso.inner_evaluations"] = static_cast<double>(stats.inner_evaluations);
  m["pso.bookkeeping_s"] = pass.wall_s - stats.eval_seconds - plan_s;
  m["testgen.runs"] = static_cast<double>(stats.testgen_runs);
  m["testgen.busy_s"] = stats.testgen_seconds;
  m["testgen.vectors"] = vectors;
  m["testgen.plan_s"] = plan_s;
  m["ilp.nodes"] = static_cast<double>(totals.counter("ilp.nodes"));
  m["ilp.pivots"] = static_cast<double>(totals.counter("ilp.pivots"));
  m["ilp.lp_solves"] = static_cast<double>(totals.counter("ilp.lp_solves"));
  const std::int64_t warm = totals.counter("ilp.warm_start_attempts");
  m["ilp.warm_start_hit_ratio"] =
      warm == 0 ? 0.0
                : static_cast<double>(totals.counter("ilp.warm_start_hits")) /
                      static_cast<double>(warm);
  m["ilp.time_limited_solves"] = time_limited;
  m["quality.exec_ratio"] = geomean(ratios);
}

}  // namespace

void run_codesign_paper(const Args& args, Report& report) {
  std::vector<double> parse_us;
  SetupRounds setup(args, kSetupRepeats,
                    [&] { return make_jobs(args, &parse_us); });
  const std::vector<Job> jobs = setup.first();
  for (const Job& job : jobs) {
    const mfd::Status valid = job.options.validate();
    report.check(valid.ok(), "codesign options: " + valid.to_string());
  }

  // Untraced passes until the time budget is spent; a traced run then adds
  // one pass with the tracer attached.
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(run_pass(jobs, nullptr, [&] { setup.round(); }));
  } while (another_pass(args, start, passes.size()));
  report.end_to_end["setup_s"] = setup.median_s();

  for (std::size_t p = 0; p < passes.size(); ++p) {
    report.attempted += static_cast<std::int64_t>(jobs.size());
    report.failed += check_pass(jobs, passes[p], args.corrupt && p == 0, report);
  }
  std::vector<double> pass_s;
  std::vector<std::vector<double>> job_s;
  for (const Pass& pass : passes) {
    pass_s.push_back(pass.wall_s);
    job_s.push_back(pass.job_s);
  }
  // Every pass repeats the same work, so the first pass's counts hold.
  double evaluations = 0.0;
  double vectors = 0.0;
  double valves = 0.0;
  for (const mfd::core::CodesignResult& r : passes.front().results) {
    evaluations += static_cast<double>(r.stats.evaluations);
    if (!r.chip.has_value()) continue;
    vectors += r.tests.size();
    valves += r.chip->valve_count();
  }
  auto& e = report.end_to_end;
  e["pass_s"] = summed_medians(job_s);
  e["throughput_per_s"] = evaluations / e["pass_s"];
  e["vectors_per_valve"] = valves > 0.0 ? vectors / valves : 0.0;
  report.note_passes("codesign_paper", pass_s);
  report.note("codesign_paper: " + std::to_string(jobs.size()) +
              " jobs per pass, " + std::to_string(passes.size()) +
              " pass(es), outer iterations " +
              std::to_string(jobs.front().options.outer_iterations));

  if (!args.trace) return;
  SpanTotals totals;
  mfd::Tracer tracer(&totals);
  mfd::RunControl control;
  control.set_tracer(&tracer);
  Pass traced = run_pass(jobs, &control);
  report.attempted += static_cast<std::int64_t>(jobs.size());
  report.failed += check_pass(jobs, traced, false, report);
  fill_layers(jobs, traced, totals, report);
  report.per_layer["arch.parse_us"] = median(parse_us);
  report.per_layer["trace.overhead_pct"] =
      100.0 * (traced.wall_s / median(pass_s) - 1.0);
  char line[160];
  std::snprintf(line, sizeof line,
                "codesign_paper: sched %.3f s of %.3f s evaluation time",
                report.per_layer["sched.busy_s"],
                report.per_layer["core.eval_busy_s"]);
  report.note(line);
}

}  // namespace perfbench
