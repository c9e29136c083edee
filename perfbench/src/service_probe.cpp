// The service probe of campaign_batch's traced run: open-loop traffic
// against a loopback JobDaemon with two executors. Requests are
// testgen/coverage/diagnosis jobs over named paper chips and small FPVA
// chips sent inline as chip_text, so JSON and chip parsing do real work on
// every request. Each request is its own connection (connect, hello, one
// spec line, half-close, one result line); at most four client threads
// send, and each request is timed from when it was due. The probe measures
// a fixed offered rate, a rate ladder and an idle closed loop (one request
// at a time), which together split the latency into transport, queue wait
// and run time.
#include <atomic>
#include <cstdio>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/serialize.hpp"
#include "bench.hpp"
#include "common/json.hpp"
#include "net/framed.hpp"
#include "net/socket.hpp"
#include "svc/daemon.hpp"
#include "svc/job.hpp"
#include "svc/run_job.hpp"
#include "workload/family.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 4;
constexpr int kExecutors = 2;
constexpr double kFixedRateHz = 100.0;
constexpr double kLadderHz[] = {200.0, 400.0, 800.0, 1600.0};
/// A ladder rung is sustained when its p90 stays under this limit.
constexpr double kLatencyLimitMs = 20.0;

struct Request {
  int spec = 0;       ///< Index into the distinct spec lines.
  double due_s = 0.0; ///< Offset from the phase start.
};

struct Completion {
  bool answered = false;  ///< Exactly one result line, then a clean EOF.
  std::string line;
  double lag_ms = 0.0;      ///< Send start minus due time.
  double connect_us = 0.0;
  double latency_ms = 0.0;  ///< Result received minus due time.
};

struct Phase {
  std::vector<Request> requests;
  std::vector<Completion> done;
};

/// The distinct request mix: every interactive kind on three named paper
/// chips and on three seeded FPVA chips sent inline.
std::vector<std::string> make_mix(const Args& args,
                                  std::vector<std::string>* chip_texts,
                                  std::vector<int>* valves) {
  using mfd::svc::JobKind;
  const JobKind kinds[] = {JobKind::kTestgen, JobKind::kCoverage,
                           JobKind::kDiagnosis};
  std::vector<mfd::svc::JobSpec> specs;
  const char* named[] = {"figure4_chip", "IVD_chip", "RA30_chip"};
  for (const char* chip : named) {
    for (const JobKind kind : kinds) {
      mfd::svc::JobSpec spec;
      spec.kind = kind;
      spec.chip = chip;
      specs.push_back(spec);
    }
    if (args.tiny) break;
  }
  mfd::workload::FamilySpec family;
  family.name = "svc";
  family.kind = "fpva";
  family.count = args.tiny ? 1 : 3;
  family.seed = mix_seed(args.seed, 1);
  family.rows_min = family.cols_min = 5;
  family.rows_max = family.cols_max = 7;
  std::vector<mfd::workload::FamilyMember> members;
  const mfd::Status status = mfd::workload::expand_family(family, &members);
  if (!status.ok()) throw std::runtime_error("svc family: " + status.to_string());
  for (const mfd::workload::FamilyMember& member : members) {
    chip_texts->push_back(mfd::arch::chip_to_string(member.chip));
    for (const JobKind kind : kinds) {
      mfd::svc::JobSpec spec;
      spec.kind = kind;
      spec.chip_text = chip_texts->back();
      spec.universe = "stuck_at_leakage";
      spec.seed = mix_seed(args.seed, specs.size());
      specs.push_back(spec);
    }
  }
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].id = "s" + std::to_string(i);
    lines.push_back(specs[i].to_json().dump());
    const std::string& text = specs[i].chip_text;
    valves->push_back(
        text.empty() ? mfd::svc::JobContext().chip_for(specs[i]).valve_count()
                     : mfd::arch::chip_from_string(text).valve_count());
  }
  return lines;
}

Completion send_request(int port, const std::string& line) {
  Completion c;
  const Clock::time_point start = Clock::now();
  std::string error;
  const int fd = mfd::net::tcp_connect("127.0.0.1", port, &error);
  c.connect_us = seconds_since(start) * 1e6;
  if (fd < 0) return c;
  mfd::net::FramedConnection conn(fd);
  if (!conn.write_line(R"({"role":"client","priority":""})") ||
      !conn.write_line(line)) {
    return c;
  }
  conn.shutdown_write();
  std::string result;
  int lines = 0;
  for (;;) {
    const auto status = conn.read_line(&result);
    if (status != mfd::net::FramedConnection::ReadStatus::kLine) {
      c.answered =
          status == mfd::net::FramedConnection::ReadStatus::kEof && lines == 1;
      break;
    }
    if (++lines == 1) c.line = result;
  }
  return c;
}

/// Sends `requests` from `clients` threads, on their schedule or, when
/// `closed_loop`, each as soon as its thread is free; times each request
/// from its due time.
void run_phase(int port, const std::vector<std::string>& mix, Phase& phase,
               int clients, bool closed_loop) {
  phase.done.assign(phase.requests.size(), Completion{});
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= phase.requests.size()) return;
      const Request& request = phase.requests[i];
      const Clock::time_point due =
          closed_loop ? Clock::now()
                      : start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        request.due_s));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      Completion c = send_request(port, mix[request.spec]);
      c.lag_ms = std::chrono::duration<double, std::milli>(sent - due).count();
      c.latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      phase.done[i] = std::move(c);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) threads.emplace_back(client);
  for (std::thread& thread : threads) thread.join();
}

/// Poisson arrivals at `rate_hz` for `duration_s`, specs drawn uniformly.
Phase poisson_phase(std::mt19937_64& rng, std::size_t mix_size,
                    double rate_hz, double duration_s) {
  std::exponential_distribution<double> gap(rate_hz);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(mix_size) - 1);
  Phase phase;
  for (double t = gap(rng); t < duration_s; t += gap(rng)) {
    phase.requests.push_back(Request{pick(rng), t});
  }
  return phase;
}

std::vector<double> latencies(const Phase& phase) {
  std::vector<double> out;
  for (const Completion& c : phase.done) out.push_back(c.latency_ms);
  return out;
}

/// Checks every answer against the in-process oracle line of its spec;
/// returns the number of requests not answered correctly.
int check_phase(const Phase& phase, const std::vector<std::string>& oracle,
                const std::string& name, Report& report) {
  int failed = 0;
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    const Completion& c = phase.done[i];
    const std::string who = "service " + name + " request " +
                            std::to_string(i) + ": ";
    if (!report.check(c.answered, who + "not answered exactly once") ||
        !report.check(c.line == oracle[phase.requests[i].spec],
                      who + "result differs from in-process run_job")) {
      ++failed;
    }
  }
  return failed;
}

/// A rung is sustained when its p90 meets the limit and the backlog does
/// not grow: the last quarter's median latency stays within twice the
/// first quarter's plus one millisecond.
bool sustained(const Phase& phase) {
  const std::vector<double> all = latencies(phase);
  if (all.size() < 8) return false;
  const std::size_t q = all.size() / 4;
  const double first = median({all.begin(), all.begin() + q});
  const double last = median({all.end() - q, all.end()});
  return percentile(all, 0.90) <= kLatencyLimitMs && last <= 2.0 * first + 1.0;
}

}  // namespace

void run_service_probe(const Args& args, Report& report) {
  std::vector<std::string> chip_texts;
  std::vector<int> valves;
  const std::vector<std::string> mix = make_mix(args, &chip_texts, &valves);
  mfd::svc::DaemonOptions options;
  options.executors = kExecutors;
  options.queue_capacity = 64;
  mfd::svc::JobDaemon daemon(options);
  const mfd::Status started = daemon.start();
  if (!started.ok()) throw std::runtime_error(started.to_string());
  const int port = daemon.port();

  // The oracle: each distinct spec run in process. Its run time is timed
  // as the daemon's executors run it: warm, with parsed chips cached in a
  // JobContext, as the median of a few runs.
  std::vector<std::string> oracle;
  std::vector<double> run_ms;
  mfd::svc::JobContext context;
  for (const std::string& line : mix) {
    const mfd::svc::JobSpec spec =
        mfd::svc::JobSpec::from_json(mfd::Json::parse(line));
    const mfd::svc::JobResult result = mfd::svc::run_job(spec);
    report.check(result.status.ok(),
                 "service oracle: " + result.status.to_string());
    oracle.push_back(result.to_json().dump());
    std::vector<double> warm_ms;
    for (int r = 0; r < 5; ++r) {
      const Clock::time_point start = Clock::now();
      (void)mfd::svc::run_job(spec, nullptr, nullptr, &context);
      warm_ms.push_back(seconds_since(start) * 1e3);
    }
    run_ms.push_back(median(std::move(warm_ms)));
  }
  if (args.corrupt) oracle.front() += " ";

  std::mt19937_64 rng(mix_seed(args.seed, 2));
  const double budget = args.tiny ? 0.5 : args.seconds;
  std::vector<std::pair<std::string, const Phase*>> checked;

  Phase fixed = poisson_phase(rng, mix.size(), kFixedRateHz, budget * 0.15);
  run_phase(port, mix, fixed, kClients, false);
  checked.emplace_back("fixed-rate", &fixed);

  std::vector<Phase> ladder;
  ladder.reserve(std::size(kLadderHz));
  double max_rate = 0.0;
  for (const double rate : kLadderHz) {
    ladder.push_back(poisson_phase(rng, mix.size(), rate, budget * 0.05));
    run_phase(port, mix, ladder.back(), kClients, false);
    checked.emplace_back("ladder", &ladder.back());
    const bool ok = sustained(ladder.back());
    char line[120];
    std::snprintf(line, sizeof line,
                  "service ladder %5.0f req/s: %zu requests, p90 %.3f ms%s",
                  rate, ladder.back().requests.size(),
                  percentile(latencies(ladder.back()), 0.90),
                  ok ? "" : " (not sustained)");
    report.note(line);
    if (!ok) break;
    max_rate = rate;
  }

  Phase idle;
  for (int r = 0; r < 5; ++r) {
    for (std::size_t s = 0; s < mix.size(); ++s) {
      Phase single;
      single.requests.push_back(Request{static_cast<int>(s), 0.0});
      run_phase(port, mix, single, 1, true);
      idle.requests.push_back(single.requests.front());
      idle.done.push_back(single.done.front());
    }
  }
  checked.emplace_back("idle", &idle);
  const mfd::svc::DaemonMetrics metrics = daemon.metrics();
  daemon.stop();

  for (const auto& [name, phase] : checked) {
    report.attempted += static_cast<std::int64_t>(phase->requests.size());
    report.failed += check_phase(*phase, oracle, name, report);
  }
  report.check(metrics.jobs_shed == 0, "service: jobs were shed");

  // The split: run time is the in-process run_job time of the fixed-rate
  // requests; transport is the idle latency beyond it; queue wait is the
  // latency at the offered rate beyond the idle latency.
  std::vector<double> fixed_run_ms;
  std::vector<double> lag_ms;
  std::vector<double> connect_us;
  for (std::size_t i = 0; i < fixed.requests.size(); ++i) {
    fixed_run_ms.push_back(run_ms[fixed.requests[i].spec]);
    lag_ms.push_back(fixed.done[i].lag_ms);
    connect_us.push_back(fixed.done[i].connect_us);
  }
  const std::vector<double> fixed_ms = latencies(fixed);
  const double p50 = percentile(fixed_ms, 0.50);
  const double idle_p50 = percentile(latencies(idle), 0.50);
  const double run = median(fixed_run_ms);

  std::vector<double> parse_json_us;
  for (const Completion& c : fixed.done) {
    const Clock::time_point start = Clock::now();
    (void)mfd::Json::parse(c.line);
    parse_json_us.push_back(seconds_since(start) * 1e6);
  }
  std::vector<double> parse_chip_us;
  for (const std::string& text : chip_texts) {
    const Clock::time_point start = Clock::now();
    (void)mfd::arch::chip_from_string(text);
    parse_chip_us.push_back(seconds_since(start) * 1e6);
  }
  auto& m = report.per_layer;
  m["svc.p50_ms"] = p50;
  m["svc.p90_ms"] = percentile(fixed_ms, 0.90);
  m["svc.p99_ms"] = percentile(fixed_ms, 0.99);
  m["svc.max_rate_hz"] = max_rate;
  m["svc.run_ms"] = run;
  m["svc.transport_ms"] = idle_p50 - run;
  m["svc.queue_wait_ms"] = p50 - idle_p50;
  m["svc.jobs_shed"] = static_cast<double>(metrics.jobs_shed);
  m["svc.jobs_retried"] = static_cast<double>(metrics.jobs_retried);
  m["svc.generator_lag_ms"] = percentile(lag_ms, 0.90);
  m["net.connect_us"] = median(connect_us);
  m["json.parse_us"] = median(parse_json_us);
  m["arch.parse_us"] = median(parse_chip_us);

  char line[200];
  std::snprintf(line, sizeof line,
                "service: %zu distinct specs, %zu requests at %.0f req/s: "
                "p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
                mix.size(), fixed.requests.size(), kFixedRateHz, p50,
                m["svc.p90_ms"], m["svc.p99_ms"]);
  report.note(line);
  std::snprintf(line, sizeof line,
                "service split of p50 %.3f ms: transport %.3f + queue wait "
                "%.3f + run %.3f ms",
                p50, m["svc.transport_ms"], m["svc.queue_wait_ms"], run);
  report.note(line);
}

}  // namespace perfbench
