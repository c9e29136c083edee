// fpva_test: the FPVA test flow, closed loop, single thread. A seeded FPVA
// family covers 10x10, 17x17, 24x24 and 32x32 grids at full channel
// density and at a thinned density, pruned to the channels test flow can
// pass; every chip goes through multiport test generation, stuck-at plus
// leakage coverage, signatures, the diagnosis table and test-set
// minimization. The scheduler does no work here.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/run_control.hpp"
#include "sim/batch_fault.hpp"
#include "sim/diagnosis.hpp"
#include "sim/pressure.hpp"
#include "testgen/minimize.hpp"
#include "testgen/vector_gen.hpp"
#include "workload/family.hpp"

namespace perfbench {
namespace {

using mfd::sim::FaultUniverse;
constexpr FaultUniverse kUniverse = FaultUniverse::kStuckAtAndLeakage;
/// Chips up to this many valves are also checked against the naive
/// per-fault pressure simulator.
constexpr int kOracleValves = 200;
/// Channel density of the thinned tier.
constexpr double kThinnedDensity = 0.9;
/// Set-up calls per timed round (one call takes about 10 ms).
constexpr int kSetupRepeats = 2;

struct Chip {
  std::string name;
  mfd::arch::Biochip chip;
  std::uint64_t seed = 0;
};

/// Per-chip results of one pass through the flow.
struct ChipRun {
  bool ok = false;
  double flow_s = 0.0;
  double multiport_s = 0.0;
  double coverage_s = 0.0;
  double signatures_s = 0.0;
  double diagnosis_s = 0.0;
  double minimize_s = 0.0;
  int vectors = 0;
  int faults = 0;
  mfd::testgen::TestSuite suite;
  mfd::testgen::TestSuite minimized;
  mfd::testgen::MinimizeStats minimize_stats;
  mfd::sim::CoverageReport coverage;
  mfd::sim::FaultSignatures signatures;
  mfd::sim::DiagnosisTable table;
};

/// Marks the channels that lie on a simple path between two ports. No test
/// flow can pass through any other channel, so no test observes its valve
/// stuck closed and the chip has no complete test suite: a dead end, a loop
/// hanging off a single node, the channel to a device at the end of a
/// branch. A channel lies on such a path exactly when two nodes of its
/// biconnected block are ports or lead to ports outside the block, since a
/// biconnected block holds a simple path through any of its edges between
/// any two of its nodes.
std::vector<bool> on_port_paths(const mfd::arch::Biochip& chip) {
  const mfd::graph::Graph& graph = chip.grid().graph();
  const auto n_nodes = static_cast<std::size_t>(graph.node_count());
  std::vector<std::vector<mfd::graph::EdgeId>> incident(n_nodes);
  for (const mfd::graph::EdgeId e : chip.channel_edges()) {
    incident[static_cast<std::size_t>(graph.edge(e).u)].push_back(e);
    incident[static_cast<std::size_t>(graph.edge(e).v)].push_back(e);
  }

  // Biconnected blocks (Tarjan, iterative), in the order they close. A
  // block closes when the DFS leaves its top node, so every block's parent
  // cut node is its top node, and a block closes after every block below it.
  struct Block {
    std::vector<mfd::graph::EdgeId> edges;
    mfd::graph::NodeId top = mfd::graph::kInvalidNode;
  };
  std::vector<Block> blocks;
  std::vector<int> tin(n_nodes, -1), low(n_nodes, 0);
  std::vector<mfd::graph::EdgeId> edge_stack;
  struct Frame {
    mfd::graph::NodeId node;
    mfd::graph::EdgeId via;
    std::size_t next = 0;
  };
  int clock = 0;
  const mfd::graph::NodeId root =
      chip.port(0).node;  // the chip is connected, so one DFS reaches all
  std::vector<Frame> dfs{{root, mfd::graph::kInvalidEdge}};
  tin[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] =
      clock++;
  while (!dfs.empty()) {
    Frame& f = dfs.back();
    const auto u = static_cast<std::size_t>(f.node);
    if (f.next < incident[u].size()) {
      const mfd::graph::EdgeId e = incident[u][f.next++];
      if (e == f.via) continue;
      const mfd::graph::NodeId w = graph.edge(e).other(f.node);
      const auto wi = static_cast<std::size_t>(w);
      if (tin[wi] < 0) {
        edge_stack.push_back(e);
        tin[wi] = low[wi] = clock++;
        dfs.push_back({w, e});
      } else if (tin[wi] < tin[u]) {
        edge_stack.push_back(e);
        low[u] = std::min(low[u], tin[wi]);
      }
      continue;
    }
    const Frame done = f;
    dfs.pop_back();
    if (dfs.empty()) break;
    const auto parent = static_cast<std::size_t>(dfs.back().node);
    const auto child = static_cast<std::size_t>(done.node);
    low[parent] = std::min(low[parent], low[child]);
    if (low[child] >= tin[parent]) {
      Block block;
      block.top = dfs.back().node;
      mfd::graph::EdgeId e;
      do {
        e = edge_stack.back();
        edge_stack.pop_back();
        block.edges.push_back(e);
      } while (e != done.via);
      blocks.push_back(std::move(block));
    }
  }

  // Ports below each block (inside it, or in the blocks hanging under it),
  // not counting its top node, and the block's nodes other than its top
  // that are ports or lead to ports. A node other than a block's top belongs
  // to that block alone or is the top of the blocks hanging under it. Blocks
  // close bottom-up, so one sweep works.
  std::vector<int> ports_below_node(n_nodes, 0);
  std::vector<int> below(blocks.size(), 0);
  std::vector<int> entries(blocks.size(), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::set<mfd::graph::NodeId> nodes;
    for (const mfd::graph::EdgeId e : blocks[b].edges) {
      nodes.insert(graph.edge(e).u);
      nodes.insert(graph.edge(e).v);
    }
    nodes.erase(blocks[b].top);
    for (const mfd::graph::NodeId v : nodes) {
      const auto vi = static_cast<std::size_t>(v);
      const int port = chip.node_is_port(v) ? 1 : 0;
      below[b] += port + ports_below_node[vi];
      if (port + ports_below_node[vi] > 0) ++entries[b];
    }
    ports_below_node[static_cast<std::size_t>(blocks[b].top)] += below[b];
  }
  const int total = chip.port_count();
  std::vector<bool> on_path(static_cast<std::size_t>(graph.edge_count()), false);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    // The top node leads to every port not below the block.
    if (entries[b] + (total > below[b] ? 1 : 0) < 2) continue;
    for (const mfd::graph::EdgeId e : blocks[b].edges) {
      on_path[static_cast<std::size_t>(e)] = true;
    }
  }
  return on_path;
}

/// Returns the chip without the channels that lie on no path between two
/// ports, and without the devices left on none of its channels; counts the
/// valves removed. The channels kept form a connected array holding every
/// port.
mfd::arch::Biochip prune_unreachable(const mfd::arch::Biochip& chip,
                                     int* removed) {
  const std::vector<bool> keep = on_port_paths(chip);
  const mfd::arch::ConnectionGrid& grid = chip.grid();
  const mfd::graph::Graph& graph = grid.graph();
  std::vector<bool> used(static_cast<std::size_t>(graph.node_count()), false);
  *removed = 0;
  for (const mfd::graph::EdgeId e : chip.channel_edges()) {
    if (!keep[static_cast<std::size_t>(e)]) {
      ++*removed;
      continue;
    }
    used[static_cast<std::size_t>(graph.edge(e).u)] = true;
    used[static_cast<std::size_t>(graph.edge(e).v)] = true;
  }
  mfd::arch::Biochip out(grid, chip.name());
  for (const mfd::arch::Port& port : chip.ports()) {
    out.add_port(grid.x_of(port.node), grid.y_of(port.node), port.name);
  }
  for (const mfd::arch::Device& device : chip.devices()) {
    if (!used[static_cast<std::size_t>(device.node)]) continue;
    out.add_device(device.kind, grid.x_of(device.node), grid.y_of(device.node),
                   device.name);
  }
  for (const mfd::graph::EdgeId e : chip.channel_edges()) {
    if (!keep[static_cast<std::size_t>(e)]) continue;
    const mfd::graph::Edge& edge = graph.edge(e);
    out.add_channel(grid.x_of(edge.u), grid.y_of(edge.u), grid.x_of(edge.v),
                    grid.y_of(edge.v));
  }
  return out;
}

/// The family, one member per grid and density. Thinning can leave
/// channels that no test flow passes; they are pruned, and the valves
/// removed are counted.
std::vector<Chip> make_family(const Args& args, int* pruned_valves) {
  const std::vector<int> grids =
      args.tiny ? std::vector<int>{6, 8} : std::vector<int>{10, 17, 24, 32};
  std::vector<Chip> chips;
  *pruned_valves = 0;
  for (const double density : {1.0, kThinnedDensity}) {
    for (const int n : grids) {
      mfd::workload::FamilySpec spec;
      spec.name = "fpva" + std::to_string(n) + (density < 1.0 ? "t" : "");
      spec.kind = "fpva";
      spec.count = 1;
      spec.rows_min = spec.rows_max = spec.cols_min = spec.cols_max = n;
      spec.density_min = spec.density_max = density;
      spec.mixers = 2;
      spec.seed = mix_seed(args.seed, chips.size());
      std::vector<mfd::workload::FamilyMember> members;
      const mfd::Status status = mfd::workload::expand_family(spec, &members);
      if (!status.ok() || members.size() != 1) {
        throw std::runtime_error("fpva family: " + status.to_string());
      }
      int removed = 0;
      mfd::arch::Biochip chip =
          prune_unreachable(members.front().chip, &removed);
      *pruned_valves += removed;
      std::string why;
      if (!chip.validate(&why)) {
        throw std::runtime_error("fpva " + members.front().name +
                                 ": pruned chip invalid: " + why);
      }
      chips.push_back(Chip{members.front().name, std::move(chip), spec.seed});
    }
  }
  return chips;
}

ChipRun run_flow(const Chip& entry, const mfd::RunControl* control) {
  const mfd::arch::Biochip& chip = entry.chip;
  ChipRun run;
  const Clock::time_point start = Clock::now();
  Clock::time_point t = start;
  mfd::testgen::VectorGenOptions gen;
  gen.seed = entry.seed;
  gen.control = control;
  auto suite = mfd::testgen::generate_test_suite_multiport(chip, gen);
  run.multiport_s = seconds_since(t);
  if (!suite.has_value()) return run;
  run.suite = std::move(*suite);
  run.vectors = run.suite.size();

  t = Clock::now();
  run.coverage =
      mfd::sim::evaluate_coverage(chip, run.suite.vectors, kUniverse, control);
  run.coverage_s = seconds_since(t);

  const std::vector<mfd::sim::Fault> faults =
      mfd::sim::all_faults(chip, kUniverse);
  run.faults = static_cast<int>(faults.size());
  t = Clock::now();
  run.signatures =
      mfd::sim::compute_signatures(chip, run.suite.vectors, faults, control);
  run.signatures_s = seconds_since(t);

  t = Clock::now();
  run.table = mfd::sim::build_diagnosis_table(chip, run.suite.vectors,
                                               kUniverse);
  run.diagnosis_s = seconds_since(t);

  mfd::testgen::MinimizeOptions minimize;
  minimize.control = control;
  t = Clock::now();
  run.minimized = mfd::testgen::minimize_test_suite(chip, run.suite, minimize,
                                                    &run.minimize_stats);
  run.minimize_s = seconds_since(t);
  run.flow_s = seconds_since(start);
  run.ok = true;
  return run;
}

/// Runs every chip through the flow once; `after_chip` runs after each
/// chip, outside the times. `*busy_s` is the chips' flow times, summed.
std::vector<ChipRun> run_pass(const std::vector<Chip>& chips,
                              const mfd::RunControl* control, double* busy_s,
                              const std::function<void()>& after_chip = [] {}) {
  std::vector<ChipRun> runs;
  *busy_s = 0.0;
  for (const Chip& chip : chips) {
    runs.push_back(run_flow(chip, control));
    *busy_s += runs.back().flow_s;
    after_chip();
  }
  return runs;
}

/// Naive oracle: every fault against every vector with the reference
/// pressure simulator.
mfd::sim::CoverageReport naive_coverage(
    const mfd::arch::Biochip& chip,
    const std::vector<mfd::sim::TestVector>& vectors) {
  const mfd::sim::PressureSimulator simulator(chip);
  mfd::sim::EvaluationContext ctx;
  mfd::sim::CoverageReport report;
  for (const mfd::sim::Fault& fault : mfd::sim::all_faults(chip, kUniverse)) {
    ++report.total_faults;
    bool detected = false;
    for (const mfd::sim::TestVector& vector : vectors) {
      if (simulator.detects(vector, fault, ctx)) {
        detected = true;
        break;
      }
    }
    if (detected) {
      ++report.detected_faults;
    } else {
      report.undetected.push_back(fault);
    }
  }
  return report;
}

/// Distinct detecting signatures in a packed detection matrix.
int distinct_signatures(const mfd::sim::FaultSignatures& signatures) {
  const auto words = static_cast<std::size_t>(signatures.words_per_fault());
  std::set<std::vector<std::uint64_t>> rows;
  for (int f = 0; f < signatures.fault_count; ++f) {
    if (!signatures.detected(f)) continue;
    const auto begin = signatures.bits.begin() +
                       static_cast<std::ptrdiff_t>(f * words);
    rows.emplace(begin, begin + static_cast<std::ptrdiff_t>(words));
  }
  return static_cast<int>(rows.size());
}

int check_pass(const std::vector<Chip>& chips, std::vector<ChipRun>& runs,
               bool with_oracle, bool corrupt, Report& report) {
  if (corrupt && !runs.empty() && runs.front().ok) {
    runs.front().minimized.vectors.resize(1);
  }
  int failed = 0;
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const Chip& entry = chips[i];
    ChipRun& run = runs[i];
    const std::string who = "fpva " + entry.name + ": ";
    if (!report.check(run.ok, who + "no complete multiport test suite")) {
      ++failed;
      continue;
    }
    report.check(run.suite.coverage.complete(),
                 who + "multiport suite is not stuck-at complete");
    report.check(mfd::sim::evaluate_coverage(entry.chip, run.minimized.vectors)
                     .complete(),
                 who + "minimized suite lost stuck-at coverage");
    report.check(run.minimized.size() <= run.suite.size(),
                 who + "minimization added vectors");
    report.check(static_cast<int>(run.table.signature_of_fault.size()) ==
                     run.faults,
                 who + "diagnosis table does not span the fault universe");
    report.check(distinct_signatures(run.signatures) ==
                     run.table.distinct_signatures(),
                 who + "signatures and diagnosis table disagree");
    if (with_oracle && entry.chip.valve_count() <= kOracleValves) {
      const mfd::sim::CoverageReport naive =
          naive_coverage(entry.chip, run.suite.vectors);
      report.check(naive.detected_faults == run.coverage.detected_faults &&
                       naive.undetected == run.coverage.undetected,
                   who + "batch coverage differs from the naive oracle");
    }
  }
  return failed;
}

}  // namespace

void run_fpva_test(const Args& args, Report& report) {
  int pruned_valves = 0;
  SetupRounds setup(args, kSetupRepeats,
                    [&] { return make_family(args, &pruned_valves); });
  const std::vector<Chip> chips = setup.first();

  // Each pass is checked as soon as it ends and only its timings and sizes
  // are kept, so memory stays that of one pass.
  std::vector<double> pass_s;
  std::vector<std::vector<double>> flow_s;
  std::vector<int> sizes;
  const Clock::time_point start = Clock::now();
  do {
    double busy = 0.0;
    std::vector<ChipRun> runs =
        run_pass(chips, nullptr, &busy, [&] { setup.round(); });
    const bool first = pass_s.empty();
    std::vector<double> chip_s;
    for (std::size_t i = 0; i < chips.size(); ++i) {
      chip_s.push_back(runs[i].flow_s);
      if (first) {
        sizes.push_back(runs[i].minimized.size());
      } else {
        report.check(runs[i].minimized.size() == sizes[i],
                     "fpva " + chips[i].name + ": passes disagree");
      }
    }
    report.attempted += static_cast<std::int64_t>(chips.size());
    report.failed += check_pass(chips, runs, first, args.corrupt && first, report);
    pass_s.push_back(busy);
    flow_s.push_back(std::move(chip_s));
  } while (another_pass(args, start, pass_s.size()));
  const double setup_s = setup.median_s();
  report.end_to_end["setup_s"] = setup_s;

  double valves = 0.0;
  double minimized = 0.0;
  for (std::size_t i = 0; i < chips.size(); ++i) {
    valves += chips[i].chip.valve_count();
    minimized += sizes[i];
  }
  auto& e = report.end_to_end;
  e["pass_s"] = summed_medians(flow_s);
  e["throughput_per_s"] = valves / e["pass_s"];
  report.note_passes("fpva_test", pass_s);
  e["vectors_per_valve"] = minimized / valves;
  report.note("fpva_test: " + std::to_string(chips.size()) +
              " chips per pass, " + std::to_string(pass_s.size()) +
              " pass(es), " + std::to_string(static_cast<int>(valves)) +
              " valves");

  if (!args.trace) return;
  SpanTotals totals;
  mfd::Tracer tracer(&totals);
  mfd::RunControl control;
  control.set_tracer(&tracer);
  double traced_s = 0.0;
  std::vector<ChipRun> traced = run_pass(chips, &control, &traced_s);
  report.attempted += static_cast<std::int64_t>(chips.size());
  report.failed += check_pass(chips, traced, false, false, report);

  double multiport = 0.0, coverage = 0.0, signatures = 0.0, diagnosis = 0.0,
         minimize = 0.0, vectors = 0.0, faults = 0.0, resolution = 0.0;
  int exact = 0;
  int time_limited = 0;
  mfd::testgen::MinimizeOptions defaults;
  for (const ChipRun& run : traced) {
    multiport += run.multiport_s;
    coverage += run.coverage_s;
    signatures += run.signatures_s;
    diagnosis += run.diagnosis_s;
    minimize += run.minimize_s;
    vectors += run.vectors;
    faults += run.faults;
    resolution += run.table.resolution();
    if (run.minimize_stats.exact) ++exact;
    if (!run.minimize_stats.exact &&
        run.minimize_stats.vectors_before <= defaults.exact_threshold) {
      ++time_limited;
    }
  }
  const double n = static_cast<double>(traced.size());
  auto& m = report.per_layer;
  m["testgen.runs"] = n;
  m["testgen.busy_s"] = multiport + minimize;
  m["testgen.multiport_s"] = multiport;
  m["testgen.vectors"] = vectors;
  m["testgen.minimize_s"] = minimize;
  m["ilp.nodes"] = static_cast<double>(totals.counter("ilp.nodes"));
  m["ilp.pivots"] = static_cast<double>(totals.counter("ilp.pivots"));
  m["ilp.lp_solves"] = static_cast<double>(totals.counter("ilp.lp_solves"));
  m["ilp.time_limited_solves"] = time_limited;
  m["ilp.exact_minimize_ratio"] = exact / n;
  m["sim.coverage_s"] = coverage;
  m["sim.signatures_s"] = signatures;
  m["sim.diagnosis_s"] = diagnosis;
  m["sim.faults_per_s"] = signatures > 0.0 ? faults / signatures : 0.0;
  m["workload.generate_s"] = setup_s;
  m["workload.pruned_valves"] = pruned_valves;
  m["quality.vectors_min"] = minimized;
  m["quality.resolution"] = resolution / n;
  m["trace.overhead_pct"] = 100.0 * (traced_s / median(pass_s) - 1.0);
}

}  // namespace perfbench
