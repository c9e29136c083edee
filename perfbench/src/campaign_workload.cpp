// campaign_batch: a closed batch through svc::run_jobd in process — two
// job threads on the Dispatcher, one shared FitnessCache per batch and a
// result journal that fsyncs every record. The batch holds FPVA
// testgen/coverage/diagnosis jobs from the campaign expander plus codesign
// jobs that repeat two chip x assay pairs under different PSO seeds and then
// resubmit one of them, so the shared cache is read as well as written.
// The traced run also times journal appends and runs the service probe.
#include <filesystem>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/json.hpp"
#include "svc/jobd.hpp"
#include "svc/journal.hpp"
#include "workload/campaign.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kJobThreads = 2;
/// Set-up calls per timed round (one call takes about 0.3 ms).
constexpr int kSetupRepeats = 70;

struct Batch {
  std::string input;               ///< JSONL, one JobSpec per line.
  std::vector<std::string> lines;  ///< The same lines, split.
  std::vector<int> valves;         ///< Per job; 0 for codesign jobs.
};

Batch make_batch(const Args& args) {
  mfd::workload::CampaignSpec campaign;
  campaign.name = "perfbench";
  mfd::workload::CampaignTier fpva;
  fpva.name = "fpva";
  fpva.family.name = "fpva";
  fpva.family.kind = "fpva";
  fpva.family.count = args.tiny ? 1 : 3;
  fpva.family.seed = mix_seed(args.seed, 3);
  fpva.family.rows_min = fpva.family.cols_min = 8;
  fpva.family.rows_max = fpva.family.cols_max = 12;
  fpva.family.mixers = 2;
  fpva.kinds = {"testgen", "coverage", "diagnosis"};
  fpva.universe = "stuck_at_leakage";
  fpva.job_seed = mix_seed(args.seed, 4);
  campaign.tiers.push_back(fpva);
  std::vector<mfd::workload::CampaignJob> jobs;
  const mfd::Status status = mfd::workload::expand_campaign(campaign, &jobs);
  if (!status.ok()) throw std::runtime_error(status.to_string());

  Batch batch;
  for (const mfd::workload::CampaignJob& job : jobs) {
    batch.lines.push_back(job.spec.to_json().dump());
    batch.valves.push_back(job.valves);
  }
  // Each pair runs under two PSO seeds, and the last round resubmits the
  // first seed's job, which the shared cache can then answer.
  const char* pairs[][2] = {{"IVD_chip", "PID"}, {"RA30_chip", "IVD"}};
  const std::vector<int> rounds =
      args.tiny ? std::vector<int>{0, 0} : std::vector<int>{0, 1, 0};
  for (const int round : rounds) {
    for (const auto& pair : pairs) {
      mfd::svc::JobSpec spec;
      spec.kind = mfd::svc::JobKind::kCodesign;
      spec.chip = pair[0];
      spec.assay = pair[1];
      spec.seed = mix_seed(args.seed, 10 + round);
      spec.outer_iterations = args.tiny ? 1 : 2;
      spec.config_pool_size = args.tiny ? 1 : 2;
      spec.id = "codesign/" + std::to_string(batch.lines.size());
      batch.lines.push_back(spec.to_json().dump());
      batch.valves.push_back(0);
      if (args.tiny) break;
    }
  }
  for (const std::string& line : batch.lines) batch.input += line + "\n";
  return batch;
}

struct PassResult {
  std::string output;
  mfd::svc::JobdReport report;
  double wall_s = 0.0;
};

PassResult run_batch(const Batch& batch, const mfd::svc::JobdOptions& options) {
  PassResult pass;
  std::istringstream in(batch.input);
  std::ostringstream out;
  const Clock::time_point start = Clock::now();
  pass.report = mfd::svc::run_jobd(in, out, options);
  pass.wall_s = seconds_since(start);
  pass.output = out.str();
  return pass;
}

/// The first result line whose status is not ok, for the check message.
std::string first_failure(const std::string& output) {
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"outcome\":\"ok\"") == std::string::npos) return line;
  }
  return "";
}

}  // namespace

void run_campaign_batch(const Args& args, Report& report) {
  SetupRounds setup(args, kSetupRepeats, [&] { return make_batch(args); });
  const Batch batch = setup.first();
  const fs::path tmp = fs::path(args.tmp_dir) / "campaign";

  mfd::svc::JobdOptions options;
  options.threads = kJobThreads;
  options.shared_cache = true;
  options.journal_dir = (tmp / "journal").string();
  const auto measured = [&](mfd::Tracer* tracer) {
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    mfd::svc::JobdOptions pass_options = options;
    pass_options.tracer = tracer;
    return run_batch(batch, pass_options);
  };

  std::vector<PassResult> passes;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(measured(nullptr));
    setup.round();
  } while (another_pass(args, start, passes.size()));
  const double setup_s = setup.median_s();
  report.end_to_end["setup_s"] = setup_s;

  // Reference: one thread, no shared cache, no journal.
  mfd::svc::JobdOptions reference_options;
  reference_options.threads = 1;
  reference_options.shared_cache = false;
  PassResult reference = run_batch(batch, reference_options);
  if (args.corrupt) reference.output.insert(0, " ");

  const int jobs = static_cast<int>(batch.lines.size());
  for (const PassResult& pass : passes) {
    report.attempted += jobs;
    report.failed += pass.report.jobs_total - pass.report.jobs_ok;
    report.check(pass.report.jobs_ok == jobs,
                 "campaign: " + std::to_string(jobs - pass.report.jobs_ok) +
                     " job(s) not ok: " + first_failure(pass.output));
    report.check(pass.report.journal_status.ok() &&
                     pass.report.journal_appended == jobs,
                 "campaign: journal did not record every result");
    report.check(pass.output == reference.output,
                 "campaign: results differ from the 1-thread, no-journal run");
  }

  std::vector<double> pass_s;
  for (const PassResult& pass : passes) pass_s.push_back(pass.wall_s);
  double vectors = 0.0;
  double valves = 0.0;
  std::vector<std::string> result_lines;
  {
    std::istringstream lines(reference.output);
    for (std::string line; std::getline(lines, line);) {
      result_lines.push_back(line);
    }
  }
  for (std::size_t i = 0; i < result_lines.size() && i < batch.valves.size();
       ++i) {
    const mfd::Json result = mfd::Json::parse(result_lines[i]);
    const mfd::Json* v = result.get("vectors");
    if (batch.valves[i] > 0 && v != nullptr &&
        result.at("kind").as_string() == "testgen") {
      vectors += static_cast<double>(v->as_int());
      valves += batch.valves[i];
    }
  }
  auto& e = report.end_to_end;
  e["pass_s"] = median(pass_s);
  report.note_passes("campaign_batch", pass_s);
  e["throughput_per_s"] = jobs / e["pass_s"];
  e["vectors_per_valve"] = valves > 0.0 ? vectors / valves : 0.0;
  report.note("campaign_batch: " + std::to_string(jobs) + " jobs per batch, " +
              std::to_string(passes.size()) + " batch(es) on " +
              std::to_string(kJobThreads) + " job threads");

  if (args.trace) {
    SpanTotals totals;
    mfd::Tracer tracer(&totals);
    const PassResult traced = measured(&tracer);
    report.attempted += jobs;
    report.failed += traced.report.jobs_total - traced.report.jobs_ok;
    report.check(traced.output == reference.output,
                 "campaign: traced results differ from the reference");
    const mfd::svc::ServiceMetrics& metrics = traced.report.metrics;
    const mfd::EvalStats& stats = metrics.stats;
    auto& m = report.per_layer;
    m["sched.runs"] = static_cast<double>(stats.scheduler_runs);
    m["sched.busy_s"] = stats.schedule_seconds;
    m["sched.feasible_ratio"] =
        stats.scheduler_runs == 0
            ? 0.0
            : static_cast<double>(stats.testgen_runs) /
                  static_cast<double>(stats.scheduler_runs);
    m["core.evaluations"] = static_cast<double>(stats.evaluations);
    m["core.cache_hit_ratio"] = stats.hit_rate();
    const std::int64_t lookups =
        metrics.cache_shared_hits + metrics.cache_shared_misses;
    m["core.shared_hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(metrics.cache_shared_hits) /
                           static_cast<double>(lookups);
    m["core.eval_busy_s"] = stats.eval_seconds;
    m["pso.outer_evaluations"] = static_cast<double>(stats.outer_evaluations);
    m["pso.inner_evaluations"] = static_cast<double>(stats.inner_evaluations);
    m["testgen.runs"] = static_cast<double>(stats.testgen_runs);
    m["testgen.busy_s"] = stats.testgen_seconds;
    m["workload.generate_s"] = setup_s;
    m["trace.overhead_pct"] = 100.0 * (traced.wall_s / median(pass_s) - 1.0);

    // Journal appends of the batch's real result lines, one fsync each.
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    std::vector<double> append_ms;
    {
      mfd::svc::ResultJournal journal;
      const mfd::Status opened =
          journal.open((tmp / "journal").string(), batch.lines, false);
      report.check(opened.ok(), "campaign journal: " + opened.to_string());
      for (std::size_t i = 0; opened.ok() && i < result_lines.size(); ++i) {
        const Clock::time_point t = Clock::now();
        const mfd::Status appended =
            journal.append(static_cast<int>(i), result_lines[i]);
        append_ms.push_back(seconds_since(t) * 1e3);
        report.check(appended.ok(), "campaign journal: " + appended.to_string());
      }
    }
    m["journal.append_ms"] = median(append_ms);
    run_service_probe(args, report);
  }
  fs::remove_all(tmp);
}

}  // namespace perfbench
