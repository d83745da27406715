#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>

#include "api/scenario_registry.hpp"
#include "api/session.hpp"
#include "calibrate.hpp"
#include "simnet/network.hpp"

namespace e2e {

using namespace envnws;

double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

std::optional<simnet::Scenario> make_scenario(const std::string& spec, Run& run) {
  ScopedSpan span("api.scenario_make");
  auto scenario = api::ScenarioRegistry::builtin().make(spec);
  if (!scenario.ok()) {
    run.check(false, "scenario '" + spec + "': " + scenario.error().to_string());
    return std::nullopt;
  }
  return std::move(scenario.value());
}

std::uint64_t begin_op(bool traced) {
  Tracer::instance().set_enabled(traced);
  return Tracer::instance().begin_op();
}

void end_op() { Tracer::instance().set_enabled(false); }

double overhead_ratio(const std::vector<double>& traced, const std::vector<double>& untraced) {
  const double base = median(untraced);
  return traced.empty() || base <= 0.0 ? 0.0 : median(traced) / base;
}

void add_layer_metrics(Run& run, const std::string& op_name, const LayerInputs& inputs) {
  const std::vector<Span> spans = Tracer::instance().spans();
  const TraceSummary summary = summarize(spans, op_name);
  print_layer_table(summary, op_name);

  run.metric("api.scenario_make_s", median_span_s(spans, "api.scenario_make"), "s");
  run.metric("simnet.network_build_s", median_span_s(spans, "simnet.network_build"), "s");
  const char* const kinds[] = {"lookup", "traceroute", "bandwidth", "concurrent"};
  for (const char* kind : kinds) {
    const std::string span = std::string("env.probe.") + kind;
    run.metric(span + ".us_per_call", us_per_call(spans, span), "us");
    run.metric(span + ".calls", summary.calls_per_op(span), "count");
    run.metric(span + ".share", summary.self_share(span), "ratio");
  }
  run.metric("env.zone.share", summary.self_share("env.zone"), "ratio");
  run.metric("env.merge.share", summary.self_share("env.merge"), "ratio");
  const LayerRow* zones = summary.find("env.zone");
  const LayerRow* map_stage = summary.find("api.session.map");
  run.metric("env.zone_parallelism",
             zones != nullptr && map_stage != nullptr && map_stage->busy_s > 0.0
                 ? zones->busy_s / map_stage->busy_s
                 : 0.0,
             "ratio");
  for (const char* stage : {"map", "plan", "apply", "validate"}) {
    const std::string span = std::string("api.session.") + stage;
    run.metric(span + ".share", summary.self_share(span), "ratio");
  }
  run.metric("simnet.network_build.share", summary.self_share("simnet.network_build"), "ratio");
  run.metric("simnet.flows_started", inputs.flows_per_op, "count");
  run.metric("simnet.messages_sent", inputs.messages_per_op, "count");
  run.metric("env.experiments", inputs.experiments_per_op, "count");
  run.metric("monitor.fold_publish.share", summary.self_share("monitor.fold_publish"), "ratio");
  run.metric("monitor.snapshot_publishes", inputs.snapshot_publishes_per_cycle, "count");
  run.metric("monitor.queries_served", inputs.queries_served, "count");
  run.metric("monitor.query.snapshot.share", inputs.query_snapshot_share, "ratio");
  run.metric("monitor.query.pair.share", inputs.query_pair_share, "ratio");
  run.metric("trace.coverage",
             summary.op_wall_s > 0.0 ? summary.covered_s / summary.op_wall_s : 0.0, "ratio");
  run.metric("trace.overhead_ratio", inputs.overhead_ratio, "ratio");
}

namespace {

/// What one op reports back; everything but wall_s is read after the
/// timed region closes.
struct OpOutcome {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  std::uint64_t experiments = 0;
  /// Hash of MapResult::identity_digest(): equal for every op of one
  /// spec and one set of options.
  std::uint64_t digest = 0;
  /// Hash of the parts of the result that must not depend on
  /// map_threads: master, warnings, grid and effective view. (The digest
  /// also holds the map-stage duration, a makespan under zone threads.)
  std::uint64_t view = 0;
  std::size_t machines = 0;
  std::uint64_t flows = 0;
  std::uint64_t messages = 0;
  /// deploy ops: the completeness verdict and a hash of the report.
  bool complete = false;
  std::uint64_t validation = 0;
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char text[20];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(value));
  return text;
}

/// One op on a fresh Network + Session: a map, or the whole deployment
/// pipeline when `deploy`, timed as one span named `op_name`.
/// `instrument` installs the timing probe engine and the stamping
/// observer and times each stage in its own span (run_all makes the same
/// four calls in the same order).
OpOutcome run_op(const char* op_name, const simnet::Scenario& scenario,
                 const api::SessionOptions& options, bool deploy, bool instrument) {
  OpOutcome out;
  StampingObserver observer;
  std::unique_ptr<simnet::Network> net;
  std::unique_ptr<api::Session> session;
  Status status;
  const auto begin = Clock::now();
  {
    ScopedSpan op_span(op_name);
    {
      ScopedSpan span("simnet.network_build");
      net = std::make_unique<simnet::Network>(scenario.topology);
    }
    session = std::make_unique<api::Session>(*net, scenario, options);
    if (instrument) {
      session->set_probe_engine_factory(timed_sim_factory());
      session->set_observer(&observer);
    }
    if (!deploy) {
      ScopedSpan span("api.session.map");
      status = session->map();
    } else if (!instrument) {
      status = session->run_all();
    } else {
      const std::pair<const char*, Status (api::Session::*)()> stages[] = {
          {"api.session.map", &api::Session::map},
          {"api.session.plan", &api::Session::plan},
          {"api.session.apply", &api::Session::apply},
          {"api.session.validate", &api::Session::validate}};
      for (const auto& [name, stage] : stages) {
        ScopedSpan span(name);
        status = (session.get()->*stage)();
        if (!status.ok()) break;
      }
    }
  }
  out.wall_s = seconds_since(begin);
  if (!status.ok()) {
    out.error = status.error().to_string();
    return out;
  }
  out.ok = true;
  const env::MapResult& map = session->map_result();
  out.experiments = map.stats.experiments;
  out.digest = fnv1a(map.identity_digest());
  std::string view = map.master_fqdn + "\n" + map.grid.to_string() + "\n" +
                     env::render_effective(map.root);
  for (const std::string& warning : map.warnings) view += "\nwarning: " + warning;
  out.view = fnv1a(view);
  std::set<std::string> machines;
  for (const std::string& machine : map.root.all_machines()) machines.insert(map.canonical(machine));
  out.machines = machines.size();
  out.flows = net->stats().flows_started;
  out.messages = net->stats().messages_sent;
  if (deploy) {
    out.complete = session->validation().complete;
    out.validation = fnv1a(session->validation().render());
  }
  return out;
}

/// Check one op's outputs: the identity digest against `same_options`
/// (the first op mapped with the same options), the thread-independent
/// view and the validation report against `view_reference`, and that
/// the view places every host of the platform.
void check_op(Run& run, const std::string& spec, const OpOutcome& op,
              const OpOutcome& same_options, const OpOutcome& view_reference, std::size_t hosts) {
  ++run.attempted;
  if (!op.ok) {
    ++run.failed;
    run.check(false, spec + ": op failed: " + op.error);
    return;
  }
  run.check(op.digest == same_options.digest, spec + ": identity digest " + hex(op.digest) +
                                                  " differs from the first op's " +
                                                  hex(same_options.digest));
  run.check(op.view == view_reference.view,
            spec + ": mapped view " + hex(op.view) + " differs from the warm-up's " +
                hex(view_reference.view));
  run.check(op.validation == view_reference.validation,
            spec + ": validation report differs from the warm-up's");
  run.check(op.machines == hosts, spec + ": the view places " + std::to_string(op.machines) +
                                      " of " + std::to_string(hosts) + " hosts");
}


/// What a timed loop accumulates over its ops.
struct Tally {
  explicit Tally(Reference reference) : calibration(reference) { calibration.sample(); }

  Calibration calibration;  ///< every op's wall time, and the reference around it
  std::vector<double> traced_walls, plain_walls;
  double total_experiments = 0.0;
  double traced_ops = 0.0, flows = 0.0, messages = 0.0, experiments = 0.0;

  void add(const OpOutcome& op, bool traced) {
    calibration.add_op(op.wall_s);
    (traced ? traced_walls : plain_walls).push_back(op.wall_s);
    total_experiments += static_cast<double>(op.experiments);
    if (!traced) return;
    ++traced_ops;
    flows += static_cast<double>(op.flows);
    messages += static_cast<double>(op.messages);
    experiments += static_cast<double>(op.experiments);
  }

  [[nodiscard]] LayerInputs layer_inputs() const {
    LayerInputs inputs;
    inputs.flows_per_op = flows / traced_ops;
    inputs.messages_per_op = messages / traced_ops;
    inputs.experiments_per_op = experiments / traced_ops;
    inputs.overhead_ratio = overhead_ratio(traced_walls, plain_walls);
    return inputs;
  }
};

/// A set-up: scenario builds plus one warm-up op, repeated (see
/// more_setups). Keeps the last repeat's scenarios and warm-up.
struct Setup {
  explicit Setup(Reference reference) : calibration(reference) {}

  std::vector<simnet::Scenario> scenarios;
  OpOutcome warmup;
  Calibration calibration;  ///< every repeat's wall time, sampled after each
};

Setup set_up(const Options& options, Run& run, const std::vector<std::string>& specs,
             const api::SessionOptions& warmup_options, bool deploy, Reference reference) {
  Setup setup(reference);
  while (more_setups(setup.calibration.walls())) {
    begin_op(options.traced);
    const auto begin = Clock::now();
    {
      ScopedSpan span("setup");
      setup.scenarios.clear();
      for (const std::string& spec : specs) {
        auto scenario = make_scenario(spec, run);
        if (!scenario.has_value()) return setup;
        setup.scenarios.push_back(std::move(*scenario));
      }
      setup.warmup =
          run_op("warmup", setup.scenarios.front(), warmup_options, deploy, options.traced);
    }
    const double wall = seconds_since(begin);
    end_op();
    setup.calibration.add_op(wall);
    if (!setup.warmup.ok) {
      run.check(false, specs.front() + ": warm-up op failed: " + setup.warmup.error);
      return setup;
    }
  }
  return setup;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// The end-to-end set of a closed loop of compute-bound ops: `op_s` (a
/// statistic of the op times), work as experiments per second of op time.
template <typename Statistic>
EndToEnd closed_loop(const Setup& setup, const Tally& tally, Statistic op_s) {
  EndToEnd measured;
  measured.setup_s = measure(setup.calibration, median);
  measured.op_s = measure(tally.calibration, op_s);
  measured.work_per_s = measure(tally.calibration, [&](const std::vector<double>& walls) {
    return tally.total_experiments / sum(walls);
  });
  return measured;
}

}  // namespace

bool more_setups(const std::vector<double>& walls) {
  constexpr std::size_t kMin = 3, kMax = 60;
  constexpr double kSeconds = 1.5;
  return walls.size() < kMin || (walls.size() < kMax && sum(walls) < kSeconds);
}

void add_e2e_metrics(Run& run, const EndToEnd& measured) {
  const std::pair<const char*, const Measured*> values[] = {
      {"setup_s", &measured.setup_s}, {"op_s_p50", &measured.op_s}};
  for (const auto& [name, value] : values) run.metric(name, value->at_reference, "s");
  run.metric("work_per_s", measured.work_per_s.at_reference, "1/s");
  for (const auto& [name, value] : values) {
    run.detail(std::string(name) + ".raw", value->raw, "s");
    run.detail(std::string(name) + ".slowdown", value->slowdown, "ratio");
  }
  run.detail("work_per_s.raw", measured.work_per_s.raw, "1/s");
  run.detail("work_per_s.slowdown", measured.work_per_s.slowdown, "ratio");
}

// --- map-scale --------------------------------------------------------------

void map_scale(const Options& options, Run& run) {
  // Sizes up to 200 hosts (≈0.5 s a map) give 20–28 maps of each size per
  // run and still show the per-experiment cost growing with platform size.
  // With star-switch:300 (≈2 s a map) a run held 7 of each; over ten
  // alternating runs of the two, the run-to-run spread was 7.0% against
  // 5.7% for op_s_p50 and 7.7% against 2.9% for work_per_s.
  const std::vector<int> sizes{100, 150, 200};
  std::vector<std::string> specs;
  for (const int size : sizes) specs.push_back("star-switch:" + std::to_string(size) + "@100");

  Setup setup = set_up(options, run, specs, {}, /*deploy=*/false, Reference::render);
  if (!run.correct()) return;

  struct PerSize {
    std::optional<OpOutcome> reference;
    std::vector<double> walls;
    std::vector<double> traced_walls, plain_walls;
    std::uint64_t experiments = 0;
  };
  std::vector<PerSize> per_size(sizes.size());
  per_size.front().reference = setup.warmup;  // the warm-up mapped the smallest size
  std::map<std::uint64_t, std::size_t> traced_op_size;  // op id -> size index
  std::vector<std::size_t> op_sizes;                    // size index of every op, in order
  Tally tally(Reference::compute_and_render);
  // The seed orders the sizes within each round; each size's maps are
  // deterministic, so every round does the same work. Only whole rounds
  // run, so per-op averages do not depend on where the clock stopped.
  std::mt19937_64 rng(options.seed);
  std::vector<std::size_t> order(sizes.size());
  std::iota(order.begin(), order.end(), 0);
  int rounds = 0;
  const auto start = Clock::now();
  for (; seconds_since(start) < options.seconds || rounds < 2; ++rounds) {
    std::shuffle(order.begin(), order.end(), rng);
    const bool traced = options.traced && rounds % 2 == 0;
    for (const std::size_t index : order) {
      const std::uint64_t op_id = begin_op(traced);
      const OpOutcome op = run_op("map", setup.scenarios[index], {}, false, traced);
      end_op();
      PerSize& size = per_size[index];
      if (!size.reference.has_value()) size.reference = op;
      check_op(run, specs[index], op, *size.reference, *size.reference,
               setup.scenarios[index].topology.hosts().size());
      tally.add(op, traced);
      op_sizes.push_back(index);
      size.walls.push_back(op.wall_s);
      (traced ? size.traced_walls : size.plain_walls).push_back(op.wall_s);
      size.experiments = op.experiments;
      if (traced) traced_op_size[op_id] = index;
    }
  }
  if (!run.correct()) return;

  std::vector<double> hosts, medians;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::string suffix = ".n" + std::to_string(sizes[i]);
    hosts.push_back(sizes[i]);
    medians.push_back(median(per_size[i].walls));
    run.detail("map_s_p50" + suffix, medians.back(), "s");
    run.detail("maps" + suffix, static_cast<double>(per_size[i].walls.size()), "count");
    run.detail("experiments" + suffix, static_cast<double>(per_size[i].experiments), "count");
  }
  run.detail("map_scaling_exponent", loglog_slope(hosts, medians), "1");
  run.detail("rounds", rounds, "count");

  if (!options.traced) {
    // A round at median speed: the sum over sizes of the median map.
    add_e2e_metrics(run, closed_loop(setup, tally, [&](const std::vector<double>& walls) {
                      double round = 0.0;
                      for (std::size_t i = 0; i < sizes.size(); ++i) {
                        std::vector<double> size_walls;
                        for (std::size_t op = 0; op < walls.size(); ++op) {
                          if (op_sizes[op] == i) size_walls.push_back(walls[op]);
                        }
                        round += median(std::move(size_walls));
                      }
                      return round;
                    }));
    return;
  }
  // Busy time per probe call at each size: the per-experiment cost the
  // scaling exponent comes from.
  const std::vector<Span> spans = Tracer::instance().spans();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::int64_t busy = 0;
    std::uint64_t calls = 0;
    for (const Span& span : spans) {
      const auto found = traced_op_size.find(span.op);
      if (!span.aggregate || found == traced_op_size.end() || found->second != i) continue;
      busy += span.busy_ns;
      calls += span.calls;
    }
    run.detail("probe_busy_us_per_call.n" + std::to_string(sizes[i]),
               calls == 0 ? 0.0 : static_cast<double>(busy) * 1e-3 / static_cast<double>(calls),
               "us");
  }
  // The overhead on op_s_p50's own statistic, a round at median speed: a
  // median over the mixed sizes would compare whichever size sits in the
  // middle of each half.
  double traced_round = 0.0, plain_round = 0.0;
  for (const PerSize& size : per_size) {
    traced_round += median(size.traced_walls);
    plain_round += median(size.plain_walls);
  }
  LayerInputs inputs = tally.layer_inputs();
  inputs.overhead_ratio = plain_round > 0.0 ? traced_round / plain_round : 0.0;
  add_layer_metrics(run, "map", inputs);
}

// --- map-sampled ------------------------------------------------------------

void map_sampled(const Options& options, Run& run) {
  const std::string spec = "star-switch:2048@100";
  api::SessionOptions session_options;
  session_options.mapper.max_pairwise = 64;
  session_options.mapper.sample_seed = options.seed;

  Setup setup =
      set_up(options, run, {spec}, session_options, /*deploy=*/false, Reference::compute);
  if (!run.correct()) return;
  const simnet::Scenario& scenario = setup.scenarios.front();
  const std::size_t hosts = scenario.topology.hosts().size();
  // The O(n·k) guard bench_mapping_cost also enforces.
  const std::uint64_t guard = 8 * hosts + 4096;

  Tally tally(Reference::compute);
  const auto start = Clock::now();
  for (int i = 0; seconds_since(start) < options.seconds || i < 2; ++i) {
    const bool traced = options.traced && i % 2 == 0;
    begin_op(traced);
    const OpOutcome op = run_op("map", scenario, session_options, false, traced);
    end_op();
    check_op(run, spec, op, setup.warmup, setup.warmup, hosts);
    run.check(op.experiments <= guard, spec + ": " + std::to_string(op.experiments) +
                                           " experiments exceed the O(n*k) guard " +
                                           std::to_string(guard));
    tally.add(op, traced);
  }
  if (!run.correct()) return;
  run.detail("maps", static_cast<double>(tally.calibration.walls().size()), "count");
  run.detail("experiments", static_cast<double>(setup.warmup.experiments), "count");

  if (!options.traced) {
    add_e2e_metrics(run, closed_loop(setup, tally, median));
    return;
  }
  add_layer_metrics(run, "map", tally.layer_inputs());
}

// --- deploy-multizone -------------------------------------------------------

void deploy_multizone(const Options& options, Run& run) {
  const std::string spec = "multi-firewall:8x8";
  // The warm-up maps sequentially: its view is the reference every
  // 4-thread op must reproduce.
  api::SessionOptions sequential;
  sequential.mapper.map_threads = 1;
  api::SessionOptions threaded;
  threaded.mapper.map_threads = 4;

  Setup setup = set_up(options, run, {spec}, sequential, /*deploy=*/true, Reference::compute);
  if (!run.correct()) return;
  run.check(setup.warmup.complete, spec + ": the deployment does not cover every pair");
  const simnet::Scenario& scenario = setup.scenarios.front();
  const std::size_t hosts = scenario.topology.hosts().size();

  Tally tally(Reference::compute);
  std::optional<OpOutcome> first;
  const auto start = Clock::now();
  for (int i = 0; seconds_since(start) < options.seconds || i < 2; ++i) {
    const bool traced = options.traced && i % 2 == 0;
    begin_op(traced);
    const OpOutcome op = run_op("deploy", scenario, threaded, true, traced);
    end_op();
    if (!first.has_value()) first = op;
    check_op(run, spec, op, *first, setup.warmup, hosts);
    tally.add(op, traced);
  }
  if (!run.correct()) return;
  run.detail("deploys", static_cast<double>(tally.calibration.walls().size()), "count");
  run.detail("deploy_s_p90", quantile(tally.calibration.walls(), 0.9), "s");

  if (!options.traced) {
    add_e2e_metrics(run, closed_loop(setup, tally, median));
    return;
  }
  add_layer_metrics(run, "deploy", tally.layer_inputs());
}

}  // namespace e2e
