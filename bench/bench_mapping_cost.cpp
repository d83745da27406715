// CLAIM-SCALE (paper §4.3): "this naive algorithm would not scale at
// all... the whole process would last about 50 days for 20 hosts. That is
// why ENV does not try to completely map the network."
//
// Three sections:
//  1. The naive full-mapping cost model next to MEASURED ENV runs over a
//     growing scenario family (`--scenario` template, default
//     star-switch:{N}@100 — the swept host count substitutes into {N}).
//  2. Concurrent zone mapping: the same multi-zone platform mapped with
//     --threads=1 and --threads=K; prints the (simulated) wall-clock
//     speedup and verifies the merged results are identical.
//  3. With --map-cache=DIR: maps once through the persistent cache, then
//     again — the second run must reload with ZERO probe experiments.
//  4. With --probe=<engine-spec>: maps through the given probe engine
//     (record:/replay:/fault:/socket: — docs/TESTING.md,
//     docs/SOCKET_ENGINE.md). A record: spec is additionally replayed
//     back and verified bit-identical, so the bench doubles as a trace
//     round-trip smoke test.
//  5. Live-vs-model (skipped when ENVNWS_TEST_NO_NET=1): an in-process
//     loopback probe-agent fleet is mapped over REAL TCP sockets at
//     --jobs=1 and --jobs=K; the measured wall-clock speedup of the
//     genuinely concurrent run_batch is printed next to the
//     batch_schedule.hpp model's prediction, and the two runs must be
//     digest-identical.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/envnws.hpp"
#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

#include "common/units.hpp"
#include "env/cost_model.hpp"
#include "env/env_tree.hpp"
#include "env/mapper.hpp"
#include "env/probe_agent.hpp"
#include "env/scenario_zones.hpp"
#include "env/sim_probe_engine.hpp"
#include "env/socket_probe_engine.hpp"
#include "simnet/scenario.hpp"

using namespace envnws;

namespace {

constexpr const char* kDefaultTemplate = "star-switch:{N}@100";
constexpr const char* kParallelScenario = "multi-firewall:8x8";

/// identity_digest() is the full canonical identity TEXT; the JSON
/// report carries its fixed-width hash (same convention as the
/// monitor's snapshot digests).
std::string short_digest(const std::string& identity) {
  return hash::hex64(hash::fnv1a64(identity));
}

void sweep_section(const std::string& spec_template, bench::JsonWriter* json) {
  Table table({"hosts", "naive exps", "naive days@30s", "env model exps", "env measured exps",
               "env sim minutes", "naive/env ratio"});

  if (json != nullptr) json->begin_array("sweep");
  for (const int n : {4, 8, 12, 16, 20, 24, 32}) {
    const std::string spec = bench::instantiate_spec(spec_template, n);
    simnet::Scenario scenario = bench::make_scenario_or_exit(spec);
    const int hosts = static_cast<int>(scenario.topology.hosts().size());
    const env::MappingCost naive = env::naive_full_mapping_cost(hosts);
    const env::MappingCost model = env::env_worst_case_cost(hosts);

    simnet::Network net(simnet::Scenario(scenario).topology);
    env::MapperOptions options;
    env::SimProbeEngine engine(net, options);
    env::Mapper mapper(engine, options);
    const auto zones = env::zones_from_scenario(scenario);
    auto result = mapper.map_zone(zones.value().front());
    if (!result.ok()) {
      std::fprintf(stderr, "mapping '%s' failed: %s\n", spec.c_str(),
                   result.error().to_string().c_str());
      std::exit(1);
    }
    const auto measured = result.value().stats;
    table.add_row(
        {std::to_string(hosts), std::to_string(naive.experiments),
         strings::format_double(naive.days(30.0), 1), std::to_string(model.experiments),
         std::to_string(measured.experiments),
         strings::format_double(measured.duration_s / 60.0, 1),
         strings::format_double(static_cast<double>(naive.experiments) /
                                    static_cast<double>(measured.experiments),
                                0)});
    if (json != nullptr) {
      json->begin_object()
          .field("scenario", spec)
          .field("hosts", hosts)
          .field("naive_experiments", naive.experiments)
          .field("naive_days_at_30s", naive.days(30.0))
          .field("model_experiments", model.experiments)
          .field("measured_experiments", measured.experiments)
          .field("sim_minutes", measured.duration_s / 60.0)
          .end_object();
    }
    if (!bench::is_spec_template(spec_template)) break;  // single fixed scenario
  }
  if (json != nullptr) json->end_array();
  std::printf("%s\n", table.to_string().c_str());
  std::printf("paper anchor: naive at 20 hosts = %.1f days (paper: \"about 50 days\")\n\n",
              env::naive_full_mapping_cost(20).days(30.0));
}

/// Least-squares slope of ln(seconds) against ln(hosts): the exponent e
/// in seconds ~ hosts^e.
double fitted_exponent(const std::vector<std::pair<double, double>>& hosts_seconds) {
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (const auto& [hosts, seconds] : hosts_seconds) {
    const double x = std::log(hosts);
    const double y = std::log(seconds);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(hosts_seconds.size());
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

/// Hierarchical sampled interrogation (MapperOptions::max_pairwise):
/// push the same scenario family far past the full-interrogation wall
/// and show the experiment count flattening from O(n^2) to ~O(n + k^2)
/// while the digest stays a pure function of (spec, sample_seed), and
/// the real time of a map growing about linearly with the host count.
void sampled_section(const std::string& spec_template, bench::JsonWriter* json) {
  constexpr int kMaxPairwise = 64;
  // The real-time exponent is fitted over the sizes from kFitFromHosts
  // on. Experiments grow linearly; a fit above kMaxExponent means the
  // mapper's own bookkeeping went quadratic again (it measured 1.8-2.4
  // when every name lookup scanned every machine). The bound leaves
  // room for timing noise on a shared machine, and each fitted size is
  // mapped kFitRuns times and fitted by its fastest run, so one stalled
  // run does not move the fit.
  constexpr unsigned long long kFitFromHosts = 4096;
  constexpr double kMaxExponent = 1.3;
  constexpr int kFitRuns = 3;
  std::printf("--- hierarchical sampled interrogation (--max-pairwise model: %d) ---\n",
              kMaxPairwise);
  Table table({"hosts", "full pairwise", "experiments", "reps", "inferred", "escalated",
               "digest", "real seconds"});
  if (json != nullptr) {
    json->begin_object("sampled")
        .field("max_pairwise", kMaxPairwise)
        .begin_array("sweep");
  }
  std::vector<int> sizes{256, 1024, 4096, 16384, 65534};
  std::vector<std::pair<double, double>> fit_points;
  if (!bench::is_spec_template(spec_template)) sizes = {0};  // single fixed scenario
  for (const int n : sizes) {
    const std::string spec =
        n == 0 ? spec_template : bench::instantiate_spec(spec_template, n);
    simnet::Scenario scenario = bench::make_scenario_or_exit(spec);
    const auto hosts = static_cast<unsigned long long>(scenario.topology.hosts().size());
    const bool fitted = n != 0 && hosts >= kFitFromHosts;
    std::unique_ptr<simnet::Network> net;
    std::unique_ptr<api::Session> session;
    double wall = 0.0;
    for (int run = 0; run < (fitted ? kFitRuns : 1); ++run) {
      session.reset();
      net = std::make_unique<simnet::Network>(simnet::Scenario(scenario).topology);
      session = std::make_unique<api::Session>(*net, scenario);
      session->options().mapper.max_pairwise = kMaxPairwise;
      const auto begin = std::chrono::steady_clock::now();
      if (auto status = session->map(); !status.ok()) {
        std::fprintf(stderr, "sampled map of '%s' failed: %s\n", spec.c_str(),
                     status.error().to_string().c_str());
        std::exit(1);
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
      wall = run == 0 ? seconds : std::min(wall, seconds);
    }
    const env::MapResult& result = session->map_result();
    const env::SampleStats& sampling = result.sampling;
    // C(n-1, 2) concurrent-pair experiments the paper's full phase 2b
    // would have scheduled against the master (n-1 zone members).
    const unsigned long long full_pairwise =
        hosts < 3 ? 0 : (hosts - 1) * (hosts - 2) / 2;
    // The whole point: total cost must stay linear-ish in n, never
    // quadratic. 8n + a generous fixed allowance covers phases 1-2d.
    if (result.stats.experiments > 8 * hosts + 4096) {
      std::fprintf(stderr, "BUG: sampled mapping of '%s' ran %llu experiments (> O(n*k))\n",
                   spec.c_str(),
                   static_cast<unsigned long long>(result.stats.experiments));
      std::exit(1);
    }
    if (fitted) fit_points.emplace_back(static_cast<double>(hosts), wall);
    const std::string digest = short_digest(result.identity_digest());
    table.add_row({std::to_string(hosts), std::to_string(full_pairwise),
                   std::to_string(result.stats.experiments),
                   std::to_string(sampling.representatives),
                   std::to_string(sampling.inferred_members),
                   std::to_string(sampling.escalated_members), digest,
                   strings::format_double(wall, 2)});
    if (json != nullptr) {
      json->begin_object()
          .field("scenario", spec)
          .field("hosts", static_cast<std::uint64_t>(hosts))
          .field("full_pairwise_experiments", static_cast<std::uint64_t>(full_pairwise))
          .field("experiments", result.stats.experiments)
          .field("representatives", sampling.representatives)
          .field("inferred_members", sampling.inferred_members)
          .field("escalated_members", sampling.escalated_members)
          .field("sim_minutes", result.stats.duration_s / 60.0)
          .field("real_seconds", wall)
          .field("digest", digest)
          .end_object();
    }
  }
  if (json != nullptr) json->end_array();
  std::printf("%s", table.to_string().c_str());
  std::printf("sampled interrogation keeps experiments ~O(n + k^2): yes\n");
  if (fit_points.size() >= 2) {
    const double exponent = fitted_exponent(fit_points);
    const bool linear = exponent <= kMaxExponent;
    std::printf("real seconds (fastest of %d runs) ~ hosts^%.2f from %llu hosts on"
                " (gate <= %.2f): %s\n",
                kFitRuns, exponent, kFitFromHosts, kMaxExponent, linear ? "yes" : "NO — BUG");
    if (json != nullptr) json->field("real_seconds_exponent", exponent);
    if (!linear) std::exit(1);
  }
  if (json != nullptr) json->end_object();
  std::printf("\n");
}

/// Map `scenario` through a Session with the given zone-worker count;
/// returns the elapsed real time in seconds.
double timed_map(api::Session& session, int threads) {
  session.options().mapper.map_threads = threads;
  const auto begin = std::chrono::steady_clock::now();
  if (auto status = session.map(); !status.ok()) {
    std::fprintf(stderr, "map failed: %s\n", status.error().to_string().c_str());
    std::exit(1);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

void parallel_section(const std::string& spec, int threads, bench::JsonWriter* json) {
  simnet::Scenario scenario = bench::make_scenario_or_exit(spec);
  std::printf("--- concurrent zone mapping: %s ---\n", spec.c_str());

  simnet::Network seq_net(simnet::Scenario(scenario).topology);
  api::Session sequential(seq_net, scenario);
  const double seq_real_s = timed_map(sequential, 1);
  const env::MapStats seq = sequential.map_result().stats;

  simnet::Network par_net(simnet::Scenario(scenario).topology);
  api::Session parallel(par_net, scenario);
  const double par_real_s = timed_map(parallel, threads);
  const env::MapStats par = parallel.map_result().stats;

  Table table({"threads", "zones", "experiments", "sim minutes", "real seconds"});
  table.add_row({"1", std::to_string(sequential.map_result().zones.size()),
                 std::to_string(seq.experiments),
                 strings::format_double(seq.duration_s / 60.0, 2),
                 strings::format_double(seq_real_s, 2)});
  table.add_row({std::to_string(threads), std::to_string(parallel.map_result().zones.size()),
                 std::to_string(par.experiments),
                 strings::format_double(par.duration_s / 60.0, 2),
                 strings::format_double(par_real_s, 2)});
  std::printf("%s", table.to_string().c_str());

  const double sim_speedup = par.duration_s > 0.0 ? seq.duration_s / par.duration_s : 0.0;
  const bool identical =
      sequential.map_result().grid.to_string() == parallel.map_result().grid.to_string() &&
      env::render_effective(sequential.map_result().root) ==
          env::render_effective(parallel.map_result().root) &&
      sequential.map_result().warnings == parallel.map_result().warnings &&
      sequential.map_result().master_fqdn == parallel.map_result().master_fqdn;
  std::printf("mapping wall-clock speedup with --threads=%d: %sx (simulated)\n", threads,
              strings::format_double(sim_speedup, 1).c_str());
  std::printf("parallel merged MapResult (grid, root, warnings) identical to sequential: %s\n\n",
              identical ? "yes" : "NO — BUG");
  if (!identical) std::exit(1);
  if (json != nullptr) {
    json->begin_object("parallel_zones")
        .field("scenario", spec)
        .field("threads", threads)
        .field("experiments", seq.experiments)
        .field("sequential_real_seconds", seq_real_s)
        .field("parallel_real_seconds", par_real_s)
        .field("sim_speedup", sim_speedup)
        .field("identical", identical)
        .field("digest", short_digest(parallel.map_result().identity_digest()))
        .end_object();
  }
}

void cache_section(const std::string& spec, const std::string& cache_dir) {
  simnet::Scenario scenario = bench::make_scenario_or_exit(spec);
  std::printf("--- persistent map cache (%s) ---\n", cache_dir.c_str());

  simnet::Network first_net(simnet::Scenario(scenario).topology);
  api::Session first(first_net, scenario);
  first.set_map_cache(cache_dir);
  if (auto status = first.map(); !status.ok()) {
    std::fprintf(stderr, "map failed: %s\n", status.error().to_string().c_str());
    std::exit(1);
  }
  const env::MapStats cold = first.map_result().stats;

  simnet::Network second_net(simnet::Scenario(scenario).topology);
  api::Session second(second_net, scenario);
  second.set_map_cache(cache_dir);
  if (auto status = second.map(); !status.ok()) {
    std::fprintf(stderr, "cached map failed: %s\n", status.error().to_string().c_str());
    std::exit(1);
  }
  const env::MapStats warm = second.map_result().stats;

  std::printf("first  map(): %llu experiments, %s MiB injected\n",
              static_cast<unsigned long long>(cold.experiments),
              strings::format_double(static_cast<double>(cold.bytes_sent) / (1024.0 * 1024.0), 1)
                  .c_str());
  std::printf("second map(): %llu experiments (reloaded from cache)\n",
              static_cast<unsigned long long>(warm.experiments));
  if (warm.experiments != 0) {
    std::fprintf(stderr, "BUG: cache reload still probed\n");
    std::exit(1);
  }
  std::printf("\n");
}

/// Batched within-zone probe schedule: map `spec` once per worker count
/// (probe_jobs = 1, 2, ..., max_jobs) and plot the modeled makespan
/// against the unconstrained list-scheduling bound. Every run must
/// produce the bit-identical MapResult (identity_digest) — batching
/// changes WHEN experiments could run, never what they measure.
void jobs_section(const std::string& spec, int max_jobs, bench::JsonWriter* json) {
  std::printf("--- batched within-zone probe schedule (--jobs): %s ---\n", spec.c_str());
  std::vector<int> sweep{1};
  for (int jobs = 2; jobs < max_jobs; jobs *= 2) sweep.push_back(jobs);
  if (max_jobs > 1) sweep.push_back(max_jobs);
  if (json != nullptr) json->begin_object().field("scenario", spec).begin_array("runs");

  std::string baseline_digest;
  double sequential_minutes = 0.0;
  double final_batched_minutes = 0.0;  ///< at the largest swept jobs value
  double final_saved_s = 0.0;
  Table table({"jobs", "batches", "batched exps", "sim minutes", "batched minutes", "speedup",
               "list-model bound"});
  for (const int jobs : sweep) {
    simnet::Scenario scenario = bench::make_scenario_or_exit(spec);
    simnet::Network net(simnet::Scenario(scenario).topology);
    api::Session session(net, scenario);
    session.options().mapper.probe_jobs = jobs;
    if (auto status = session.map(); !status.ok()) {
      std::fprintf(stderr, "map failed at --jobs=%d: %s\n", jobs,
                   status.error().to_string().c_str());
      std::exit(1);
    }
    const env::MapResult& result = session.map_result();
    if (jobs == 1) {
      baseline_digest = result.identity_digest();
      sequential_minutes = result.stats.duration_s / 60.0;
    } else if (result.identity_digest() != baseline_digest) {
      std::fprintf(stderr, "BUG: --jobs=%d MapResult differs from the sequential one\n", jobs);
      std::exit(1);
    }
    const double batched_minutes = result.batched_duration_s() / 60.0;
    final_batched_minutes = batched_minutes;
    final_saved_s = result.batch.saved_s();
    // The unconstrained bound: batched experiments spread perfectly over
    // the workers, everything else sequential. The measured makespan
    // sits above it because experiments sharing an endpoint serialize.
    const double bound_minutes =
        (result.stats.duration_s - result.batch.sequential_s +
         result.batch.sequential_s / jobs) /
        60.0;
    table.add_row({std::to_string(jobs), std::to_string(result.batch.batches),
                   std::to_string(result.batch.batched_experiments),
                   strings::format_double(result.stats.duration_s / 60.0, 2),
                   strings::format_double(batched_minutes, 2),
                   strings::format_double(
                       batched_minutes > 0.0 ? sequential_minutes / batched_minutes : 0.0, 2),
                   strings::format_double(bound_minutes, 2)});
    if (json != nullptr) {
      json->begin_object()
          .field("jobs", jobs)
          .field("batches", result.batch.batches)
          .field("batched_experiments", result.batch.batched_experiments)
          .field("sim_minutes", result.stats.duration_s / 60.0)
          .field("batched_minutes", batched_minutes)
          .field("list_model_bound_minutes", bound_minutes)
          .end_object();
    }
  }
  if (json != nullptr) json->end_array().field("digest", short_digest(baseline_digest)).end_object();
  std::printf("%s", table.to_string().c_str());
  // Zero savings is the CORRECT outcome on a platform without switched
  // segments (a hub serializes everything — see BatchStats): report it,
  // don't fail. A scenario that did earn savings must really be faster.
  if (final_saved_s <= 0.0) {
    std::printf("no switched-segment savings on this platform: batched == sequential, as "
                "modeled; MapResult bit-identical at every worker count: yes\n\n");
    return;
  }
  const bool faster = final_batched_minutes < sequential_minutes;
  std::printf("batched schedule (--jobs=%d) faster than sequential: %s; "
              "MapResult bit-identical at every worker count: yes\n\n",
              sweep.back(), faster ? "yes" : "NO — BUG");
  if (max_jobs > 1 && !faster) std::exit(1);
}

/// Live-vs-model: map a loopback probe-agent fleet over real TCP at
/// jobs=1 and jobs=max_jobs. Agents run paced fixed-rate mode, so the
/// reported measurements (and the digest) are identical across runs
/// while the wall clock honestly reflects the realized batch schedule.
void socket_section(const std::string& spec, int max_jobs, bench::JsonWriter* json) {
  if (const char* no_net = std::getenv("ENVNWS_TEST_NO_NET");
      no_net != nullptr && std::string(no_net) == "1") {
    std::printf("--- live socket agents: skipped (ENVNWS_TEST_NO_NET=1) ---\n\n");
    if (json != nullptr) {
      json->begin_object("socket_live")
          .field("scenario", spec)
          .field("skipped", true)
          .end_object();
    }
    return;
  }
  std::printf("--- live socket agents vs batch-schedule model: %s ---\n", spec.c_str());
  simnet::Scenario scenario = bench::make_scenario_or_exit(spec);

  // 512 KiB at a paced 200 Mbps ~= 21 ms per transfer: long enough for
  // honest overlap measurements, short enough for a bench.
  constexpr double kPacedRate = 200e6;
  constexpr std::int64_t kProbeBytes = 512 * 1024;
  std::vector<std::unique_ptr<env::ProbeAgent>> agents;
  std::string roster_text;
  for (const simnet::NodeId id : scenario.topology.hosts()) {
    const simnet::Node& node = scenario.topology.node(id);
    env::ProbeAgentConfig config;
    // Rostered under the zone-local name the mapper probes with.
    config.name = node.fqdn.empty() ? node.name : node.fqdn;
    config.fqdn = node.fqdn;
    config.ip = node.ip.is_zero() ? "127.0.0.1" : node.ip.to_string();
    config.fixed_rate_bps = kPacedRate;
    config.pace = true;
    agents.push_back(std::make_unique<env::ProbeAgent>(std::move(config)));
    if (auto status = agents.back()->start(); !status.ok()) {
      std::fprintf(stderr, "agent '%s' failed to start: %s\n", node.name.c_str(),
                   status.error().to_string().c_str());
      std::exit(1);
    }
    roster_text +=
        agents.back()->config().name + " 127.0.0.1:" + std::to_string(agents.back()->port()) + "\n";
  }
  // Unique per process: concurrent bench invocations on one machine
  // must not clobber each other's roster.
  const std::string roster_path =
      (std::filesystem::temp_directory_path() /
       ("envnws-bench-agents." + std::to_string(static_cast<long long>(::getpid())) + ".cfg"))
          .string();
  {
    std::ofstream out(roster_path, std::ios::trunc);
    out << roster_text;
  }

  std::string baseline_digest;
  double wall_1 = 0.0;
  double wall_k = 0.0;
  double modeled_sequential_s = 0.0;
  double modeled_makespan_s = 0.0;
  Table table({"jobs", "experiments", "wall seconds", "modeled batched s", "modeled saved s"});
  std::vector<int> sweep{1};
  if (max_jobs > 1) sweep.push_back(max_jobs);
  for (const int jobs : sweep) {
    simnet::Network net(simnet::Scenario(scenario).topology);
    api::Session session(net, scenario);
    session.options().mapper.probe_bytes = kProbeBytes;
    session.options().mapper.stabilization_gap_s = 0.0;
    session.options().mapper.probe_jobs = jobs;
    if (auto status = session.set_probe_engine_spec("socket:" + roster_path); !status.ok()) {
      std::fprintf(stderr, "socket spec failed: %s\n", status.error().to_string().c_str());
      std::exit(1);
    }
    const auto begin = std::chrono::steady_clock::now();
    if (auto status = session.map(); !status.ok()) {
      std::fprintf(stderr, "socket map failed at --jobs=%d: %s\n", jobs,
                   status.error().to_string().c_str());
      std::exit(1);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
    const env::MapResult& result = session.map_result();
    if (jobs == 1) {
      baseline_digest = result.identity_digest();
      wall_1 = wall;
    } else {
      wall_k = wall;
      modeled_sequential_s = result.stats.duration_s;
      modeled_makespan_s = result.batched_duration_s();
      if (result.identity_digest() != baseline_digest) {
        std::fprintf(stderr, "BUG: --jobs=%d socket MapResult differs from --jobs=1\n", jobs);
        std::exit(1);
      }
    }
    table.add_row({std::to_string(jobs), std::to_string(result.stats.experiments),
                   strings::format_double(wall, 2),
                   strings::format_double(result.batched_duration_s(), 2),
                   strings::format_double(result.batch.saved_s(), 2)});
  }
  for (auto& agent : agents) agent->stop();
  std::error_code roster_ec;
  std::filesystem::remove(roster_path, roster_ec);
  std::printf("%s", table.to_string().c_str());
  if (max_jobs <= 1) {
    std::printf("single worker requested (--jobs=1): no schedule to realize, "
                "live mapping completed\n\n");
    if (json != nullptr) {
      json->begin_object("socket_live")
          .field("scenario", spec)
          .field("skipped", false)
          .field("jobs", 1)
          .field("wall_seconds_sequential", wall_1)
          .field("digest", short_digest(baseline_digest))
          .end_object();
    }
    return;
  }

  const double live_speedup = wall_k > 0.0 ? wall_1 / wall_k : 0.0;
  const double model_speedup =
      modeled_makespan_s > 0.0 ? modeled_sequential_s / modeled_makespan_s : 0.0;
  if (json != nullptr) {
    json->begin_object("socket_live")
        .field("scenario", spec)
        .field("skipped", false)
        .field("jobs", max_jobs)
        .field("wall_seconds_sequential", wall_1)
        .field("wall_seconds_batched", wall_k)
        .field("measured_speedup", live_speedup)
        .field("model_predicted_speedup", model_speedup)
        .field("digest", short_digest(baseline_digest))
        .end_object();
  }
  std::printf("run_batch over %d real connections: %.2fx measured wall-clock speedup "
              "(batch-schedule model predicts %.2fx); digest identical: yes\n",
              max_jobs, live_speedup, model_speedup);
  const bool faster = max_jobs > 1 && wall_k < wall_1;
  std::printf("jobs=%d measurably beats jobs=1 wall-clock: %s\n\n", max_jobs,
              faster ? "yes" : "NO — BUG");
  if (max_jobs > 1 && !faster) std::exit(1);
}

/// Map through `probe_spec`; after a record: run, replay the trace back
/// and require the bit-identical MapResult (MapResult::identity_digest,
/// the same definition the golden-trace suite asserts).
void probe_engine_section(const std::string& spec, const std::string& probe_spec) {
  simnet::Scenario scenario = bench::make_scenario_or_exit(spec);
  std::printf("--- probe engine '%s' on %s ---\n", probe_spec.c_str(), spec.c_str());

  simnet::Network net(simnet::Scenario(scenario).topology);
  api::Session session(net, scenario);
  if (auto status = session.set_probe_engine_spec(probe_spec); !status.ok()) {
    std::fprintf(stderr, "bad --probe spec: %s\n", status.error().to_string().c_str());
    std::exit(2);
  }
  if (auto status = session.map(); !status.ok()) {
    std::fprintf(stderr, "map failed: %s\n", status.error().to_string().c_str());
    std::exit(1);
  }
  const env::MapStats stats = session.map_result().stats;
  std::printf("map(): %llu experiments, %zu warning(s)\n",
              static_cast<unsigned long long>(stats.experiments),
              session.map_result().warnings.size());

  if (probe_spec.rfind("record:", 0) == 0) {
    const std::string path = probe_spec.substr(std::strlen("record:"));
    simnet::Network replay_net(simnet::Scenario(scenario).topology);
    api::Session replay(replay_net, scenario);
    if (auto status = replay.set_probe_engine_spec("replay:" + path); !status.ok()) {
      std::fprintf(stderr, "replay setup failed: %s\n", status.error().to_string().c_str());
      std::exit(1);
    }
    if (auto status = replay.map(); !status.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", status.error().to_string().c_str());
      std::exit(1);
    }
    const bool identical =
        session.map_result().identity_digest() == replay.map_result().identity_digest();
    std::printf("trace replay from '%s' bit-identical to recorded run: %s\n", path.c_str(),
                identical ? "yes" : "NO — BUG");
    if (!identical) std::exit(1);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchCli cli = bench::bench_cli(argc, argv, kDefaultTemplate);
  bench::banner("CLAIM-SCALE",
                "§4.3 mapping-cost argument (naive ~50 days at 20 hosts, 30 s/experiment)",
                "naive experiment count grows ~n^4 (all link pairs), ENV ~n^2; naive hits"
                " ~50 days at n=20 while ENV stays at simulated minutes — and concurrent"
                " zone mapping cuts those minutes by ~the zone count");

  // --json: a machine-readable report next to the tables (scenario,
  // worker counts, wall clocks, model predictions, digests).
  bench::JsonWriter writer;
  bench::JsonWriter* json = cli.json_path.empty() ? nullptr : &writer;
  if (json != nullptr) {
    json->field("bench", "mapping_cost")
        .field("scenario_spec", cli.scenario_spec)
        .field("threads", cli.threads)
        .field("jobs", cli.jobs);
  }

  sweep_section(cli.scenario_spec, json);
  sampled_section(cli.scenario_spec, json);

  // The zone fan-out needs a genuinely multi-zone platform: use the
  // given scenario when it is one concrete spec, the default firewall
  // family when the bench swept a template.
  const std::string parallel_spec =
      bench::is_spec_template(cli.scenario_spec) ? kParallelScenario : cli.scenario_spec;
  parallel_section(parallel_spec, cli.threads, json);

  // The within-zone batch schedule: a single-zone star (where zone
  // fan-out buys nothing — the exact gap this schedule closes) and the
  // multi-zone firewall platform.
  if (json != nullptr) json->begin_array("probe_batching");
  jobs_section(bench::is_spec_template(cli.scenario_spec)
                   ? bench::instantiate_spec(cli.scenario_spec, 24)
                   : cli.scenario_spec,
               cli.jobs, json);
  if (bench::is_spec_template(cli.scenario_spec)) {
    jobs_section(kParallelScenario, cli.jobs, json);
  }
  if (json != nullptr) json->end_array();

  // The realized batch schedule: real sockets, real overlap, next to
  // the model the jobs_section plotted.
  socket_section("star-switch:12@100", cli.jobs, json);

  if (!cli.map_cache_dir.empty()) cache_section(parallel_spec, cli.map_cache_dir);
  if (!cli.probe_spec.empty()) probe_engine_section(parallel_spec, cli.probe_spec);

  if (json != nullptr) {
    std::ofstream out(cli.json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write --json report to '%s'\n", cli.json_path.c_str());
      return 1;
    }
    out << json->finish();
    std::printf("JSON report written to %s\n", cli.json_path.c_str());
  }
  return 0;
}
