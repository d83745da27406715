#include "api/session.hpp"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <sstream>

#include "common/strings.hpp"
#include "common/units.hpp"
#include "env/scenario_zones.hpp"
#include "env/sim_probe_engine.hpp"
#include "env/socket_probe_engine.hpp"

namespace envnws::api {

namespace {

ProbeEngineFactory sim_engine_factory() {
  return [](simnet::Network& net, const env::MapperOptions& options) {
    return std::make_unique<env::SimProbeEngine>(net, options);
  };
}

/// A zone's probe engine, decorators included, bundled with the private
/// platform replica it observes. It wraps outermost and forwards every
/// call, run_batch too, so the decorators inside it see exactly what a
/// sequential engine would. Concurrent zone mapping builds one of these
/// per zone *inside* the factory call — i.e. on the worker, when the
/// zone actually starts — so peak memory is bounded by the zones in
/// flight (<= map_threads), not by the zone count.
class ReplicaEngine final : public env::ProbeEngine {
 public:
  ReplicaEngine(std::unique_ptr<simnet::Network> replica,
                std::unique_ptr<env::ProbeEngine> inner)
      : replica_(std::move(replica)), inner_(std::move(inner)) {}

  Result<env::HostIdentity> lookup(const std::string& hostname) override {
    return inner_->lookup(hostname);
  }
  Result<std::vector<env::TraceHop>> traceroute(const std::string& from,
                                                const std::string& target) override {
    return inner_->traceroute(from, target);
  }
  Result<double> bandwidth(const std::string& from, const std::string& to) override {
    return inner_->bandwidth(from, to);
  }
  std::vector<Result<double>> concurrent_bandwidth(
      const std::vector<env::BandwidthRequest>& requests) override {
    return inner_->concurrent_bandwidth(requests);
  }
  std::vector<env::ProbeExperimentOutcome> run_batch(
      const std::vector<env::ProbeExperiment>& experiments, std::size_t workers) override {
    return inner_->run_batch(experiments, workers);
  }
  [[nodiscard]] env::ProbeStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<simnet::Network> replica_;  ///< declared first: outlives inner_
  std::unique_ptr<env::ProbeEngine> inner_;
};

}  // namespace

Session::Session(simnet::Network& net, simnet::Scenario scenario, SessionOptions options)
    : net_(net),
      scenario_(std::move(scenario)),
      options_(std::move(options)),
      engine_factory_(sim_engine_factory()) {}

Session::Session(simnet::Network& net, SessionOptions options)
    : net_(net), options_(std::move(options)), engine_factory_(sim_engine_factory()) {}

Session& Session::set_observer(Observer* observer) {
  observer_ = observer;
  return *this;
}

Session& Session::set_probe_engine_factory(ProbeEngineFactory factory) {
  engine_factory_ = factory ? std::move(factory) : sim_engine_factory();
  return *this;
}

Status Session::set_probe_engine_spec(const std::string& spec_text) {
  const std::string spec = strings::trim(spec_text);
  ProbeMode mode = ProbeMode::factory;
  std::string path;
  env::FaultSpec fault;
  std::optional<env::ProbeTrace> trace;
  std::optional<env::wire::AgentRoster> roster;

  // Split an optional "@<base>" suffix off a decorating spec
  // ("record:<path>@socket:<agents.cfg>"). Splitting at the LAST '@'
  // whose suffix parses as a base spec keeps '@' usable inside paths.
  std::string working = spec;
  std::string base;
  bool base_was_suffix = false;
  if (const auto at = working.rfind('@'); at != std::string::npos) {
    const std::string suffix = working.substr(at + 1);
    if (suffix == "sim" || strings::starts_with(suffix, "socket:")) {
      base = suffix;
      base_was_suffix = true;
      working = working.substr(0, at);
    }
  }
  if (strings::starts_with(working, "socket:")) {
    if (!base.empty()) {
      return make_error(ErrorCode::invalid_argument,
                        "probe spec '" + spec + "' names two base engines");
    }
    base = working;
    working = "sim";
  } else if (base_was_suffix && (working.empty() || working == "sim")) {
    return make_error(ErrorCode::invalid_argument,
                      "probe spec '" + spec +
                          "' decorates nothing; use the base spec by itself");
  }
  if (strings::starts_with(base, "socket:")) {
    const std::string roster_path =
        strings::trim(base.substr(std::string("socket:").size()));
    if (roster_path.empty()) {
      return make_error(ErrorCode::invalid_argument,
                        "probe spec 'socket:' names no agent roster file");
    }
    auto loaded = env::wire::AgentRoster::load(roster_path);
    if (!loaded.ok()) return loaded.error();
    if (loaded.value().empty()) {
      return make_error(ErrorCode::invalid_argument,
                        "agent roster '" + roster_path + "' lists no agents");
    }
    roster = std::move(loaded.value());
  }

  if (working.empty() || working == "sim") {
    // the base engine alone
  } else if (strings::starts_with(working, "record:")) {
    mode = ProbeMode::record;
    path = strings::trim(working.substr(std::string("record:").size()));
    if (path.empty()) {
      return make_error(ErrorCode::invalid_argument, "probe spec 'record:' names no trace file");
    }
  } else if (strings::starts_with(working, "replay:") ||
             strings::starts_with(working, "replay-lenient:")) {
    const bool lenient = strings::starts_with(working, "replay-lenient:");
    if (!lenient && base_was_suffix) {
      return make_error(ErrorCode::invalid_argument,
                        "probe spec 'replay:' is offline by definition and takes no "
                        "@<base> suffix (use replay-lenient: for a live fallback)");
    }
    mode = lenient ? ProbeMode::replay_lenient : ProbeMode::replay_strict;
    path = strings::trim(working.substr(working.find(':') + 1));
    if (path.empty()) {
      return make_error(ErrorCode::invalid_argument,
                        "probe spec '" + working.substr(0, working.find(':') + 1) +
                            "' names no trace file");
    }
    auto loaded = env::ProbeTrace::load(path);
    if (loaded.ok()) {
      trace = std::move(loaded.value());
    } else if (loaded.error().code == ErrorCode::not_found &&
               std::filesystem::exists(env::zone_trace_path(path, 0))) {
      // A per-zone (threaded) recording: the zone files load lazily, one
      // per zone engine, when map() runs with map_threads > 1.
    } else {
      return loaded.error();
    }
  } else if (strings::starts_with(working, "fault:")) {
    mode = ProbeMode::fault;
    auto parsed = env::FaultSpec::parse(working.substr(std::string("fault:").size()));
    if (!parsed.ok()) return parsed.error();
    if (parsed.value().empty()) {
      return make_error(ErrorCode::invalid_argument, "probe spec 'fault:' carries no rules");
    }
    fault = std::move(parsed.value());
  } else {
    return make_error(ErrorCode::invalid_argument,
                      "unknown probe engine spec '" + spec +
                          "' (expected sim, socket:<agents.cfg>, record:<path>, "
                          "replay:<path>, replay-lenient:<path> or fault:<rules>, "
                          "decorators optionally suffixed with @sim or "
                          "@socket:<agents.cfg>)");
  }
  probe_mode_ = mode;
  probe_spec_text_ = spec.empty() ? "sim" : spec;
  socket_roster_ = std::move(roster);
  trace_path_ = std::move(path);
  replay_trace_ = std::move(trace);
  fault_spec_ = std::move(fault);
  return {};
}

void Session::record_trace_issue(const Error& error) {
  std::lock_guard<std::mutex> lock(trace_issue_mutex_);
  if (!trace_issue_.has_value()) trace_issue_ = error;
}

Result<std::unique_ptr<env::ProbeEngine>> Session::make_engine(std::optional<std::size_t> zone) {
  // A zone engine probes concurrently with its siblings, so it observes
  // a private replica of the scenario platform — built with the session
  // network's own options, so it measures what the shared network
  // would. Socket engines observe the real agents and strict replay
  // observes nothing: neither needs one.
  std::unique_ptr<simnet::Network> replica;
  if (zone.has_value() && !socket_roster_.has_value() &&
      probe_mode_ != ProbeMode::replay_strict) {
    replica = std::make_unique<simnet::Network>(scenario_->topology, net_.options());
  }
  simnet::Network& net = replica != nullptr ? *replica : net_;
  const auto base = [&]() -> std::unique_ptr<env::ProbeEngine> {
    // Each call builds an independent engine: per-zone socket engines
    // get separate connection pools, so they probe concurrently.
    if (socket_roster_.has_value()) {
      return std::make_unique<env::SocketProbeEngine>(*socket_roster_, options_.mapper);
    }
    return engine_factory_(net, options_.mapper);
  };
  const std::string path =
      zone.has_value() ? env::zone_trace_path(trace_path_, *zone) : trace_path_;

  std::unique_ptr<env::ProbeEngine> engine;
  switch (probe_mode_) {
    case ProbeMode::factory:
      engine = base();
      break;
    case ProbeMode::record: {
      auto recorder = env::RecordingProbeEngine::open(base(), path);
      if (!recorder.ok()) return recorder.error();
      recorder.value()->set_error_handler([this](const Error& error) { record_trace_issue(error); });
      engine = std::move(recorder.value());
      break;
    }
    case ProbeMode::replay_strict:
    case ProbeMode::replay_lenient: {
      // A single-file trace was parsed by set_probe_engine_spec; each
      // zone of a per-zone recording loads its own file here.
      if (!zone.has_value() && !replay_trace_.has_value()) {
        return make_error(ErrorCode::invalid_argument,
                          "probe trace '" + trace_path_ +
                              "' is a per-zone (threaded) recording; replay it with "
                              "options().mapper.map_threads > 1");
      }
      auto trace = zone.has_value() ? env::ProbeTrace::load(path)
                                    : Result<env::ProbeTrace>(*replay_trace_);
      if (!trace.ok()) return trace.error();
      const bool lenient = probe_mode_ == ProbeMode::replay_lenient;
      auto replayer = std::make_unique<env::TraceProbeEngine>(
          std::move(trace.value()),
          lenient ? env::TraceProbeEngine::Mode::lenient : env::TraceProbeEngine::Mode::strict,
          lenient ? base() : nullptr);
      replayer->set_violation_handler([this](const Error& error) { record_trace_issue(error); });
      engine = std::move(replayer);
      break;
    }
    case ProbeMode::fault:
      engine = std::make_unique<env::FaultInjectingProbeEngine>(base(), fault_spec_);
      break;
  }
  if (replica != nullptr) {
    engine = std::make_unique<ReplicaEngine>(std::move(replica), std::move(engine));
  }
  return engine;
}

Session& Session::set_map_cache(std::string directory, std::string label) {
  map_cache_.emplace(std::move(directory));
  map_cache_label_ = std::move(label);
  return *this;
}

std::string Session::map_cache_key() const {
  // An explicit label is trusted verbatim (the caller owns collisions).
  // The default label couples the scenario name with a fingerprint of
  // the platform itself: bare simnet builders reuse one name for every
  // size, and a platform changed under an unchanged name must miss.
  std::string label = map_cache_label_;
  if (label.empty() && scenario_.has_value()) {
    label = scenario_->name + "+" + MapCache::platform_fingerprint(scenario_->topology);
  }
  return MapCache::key_for(label, options_.mapper);
}

Status Session::invalidate_map_cache() {
  if (!map_cache_.has_value()) return {};
  return map_cache_->invalidate(map_cache_key());
}

void Session::emit(Event::Kind kind, Stage stage, std::string detail, std::string zone,
                   int zone_index) {
  if (observer_ == nullptr) return;
  std::lock_guard<std::mutex> lock(event_mutex_);
  Event event;
  event.kind = kind;
  event.stage = stage;
  event.detail = std::move(detail);
  event.sim_time_s = net_.now();
  event.sequence = event_sequence_++;
  event.zone = std::move(zone);
  event.zone_index = zone_index;
  observer_->on_event(event);
}

Status Session::fail(Stage stage, const Error& error) {
  emit(Event::Kind::stage_failed, stage, error.to_string());
  return error;
}

Result<env::MapResult> Session::probe_map() {
  const auto zones = env::zones_from_scenario(*scenario_);
  if (!zones.ok()) return zones.error();
  const auto aliases = env::gateway_aliases_from_scenario(*scenario_);
  const int threads = std::max(options_.mapper.map_threads, 1);
  emit(Event::Kind::note, Stage::map,
       "mapping " + std::to_string(zones.value().size()) + " firewall zone(s) of scenario '" +
           scenario_->name + "'" +
           (threads > 1 ? " on " + std::to_string(threads) + " threads" : ""));
  if (socket_roster_.has_value()) {
    emit(Event::Kind::note, Stage::map,
         "probing through socket agent roster '" + socket_roster_->source + "' (" +
             std::to_string(socket_roster_->agents.size()) + " agent(s))");
  }
  const auto progress = [this](const env::ZoneProgress& zone) {
    Event::Kind kind = Event::Kind::zone_started;
    if (zone.phase == env::ZoneProgress::Phase::finished) kind = Event::Kind::zone_finished;
    if (zone.phase == env::ZoneProgress::Phase::failed) kind = Event::Kind::zone_failed;
    emit(kind, Stage::map, zone.detail, zone.zone_name, static_cast<int>(zone.zone_index));
  };
  const auto batch_progress = [this](const env::BatchProgress& batch) {
    std::ostringstream detail;
    detail << batch.stage << " batch on '" << batch.label << "': " << batch.experiments
           << " experiment(s) over " << batch.workers << " worker(s)";
    if (batch.phase == env::BatchProgress::Phase::finished) {
      detail << ", " << strings::format_double(batch.sequential_s, 1) << " s sequential -> "
             << strings::format_double(batch.makespan_s, 1) << " s scheduled";
    }
    emit(batch.phase == env::BatchProgress::Phase::started ? Event::Kind::probe_batch_started
                                                           : Event::Kind::probe_batch_finished,
         Stage::map, detail.str(), batch.zone_name, static_cast<int>(batch.zone_index));
  };
  {
    std::lock_guard<std::mutex> lock(trace_issue_mutex_);
    trace_issue_.reset();
  }
  if (probe_mode_ == ProbeMode::record) {
    // Path reuse is the normal case (the golden re-record workflow), so
    // scrub everything a previous recording may have left here — the
    // single-file root AND every `.zone<k>` sibling, whichever thread
    // mode produced them. A stale leftover would later replay as truth.
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::remove(trace_path_, ec);
    const fs::path base(trace_path_);
    const std::string prefix = base.filename().string() + ".zone";
    const fs::path dir = base.has_parent_path() ? base.parent_path() : fs::path(".");
    if (fs::exists(dir, ec) && !ec) {
      for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().filename().string().rfind(prefix, 0) == 0) {
          fs::remove(entry.path(), ec);
        }
      }
    }
  }
  std::optional<Result<env::MapResult>> mapped;
  if (threads > 1) {
    // Concurrent zones need independent engines: make_engine(zone) gives
    // each its own platform replica (the session's network is left
    // untouched — no probe traffic, no clock advance — exactly as if the
    // mapping had happened offline) and its own `.zone<k>` trace file.
    // Note the bit-identical-to-sequential guarantee assumes
    // deterministic engines: with measurement jitter enabled, each
    // replica draws its own noise stream.
    const auto zone_engine = [this](const env::ZoneSpec&,
                                    std::size_t zone_index) -> std::unique_ptr<env::ProbeEngine> {
      auto engine = make_engine(zone_index);
      if (engine.ok()) return std::move(engine.value());
      record_trace_issue(engine.error());
      return nullptr;
    };
    env::Mapper mapper(env::ZoneEngineFactory(zone_engine), options_.mapper);
    mapper.set_progress(progress);
    mapper.set_batch_progress(batch_progress);
    mapped = mapper.map(zones.value(), aliases);
  } else {
    auto engine = make_engine(std::nullopt);
    if (!engine.ok()) {
      mapped = Result<env::MapResult>(engine.error());
    } else {
      env::Mapper mapper(*engine.value(), options_.mapper);
      mapper.set_progress(progress);
      mapper.set_batch_progress(batch_progress);
      mapped = mapper.map(zones.value(), aliases);
    }
  }
  // The mapper downgrades probe errors to per-host warnings, so a replay
  // violation (out-of-trace request, exhausted trace) or a recording
  // write failure would otherwise hide inside a "successful" result.
  // Surface the first one as the map stage's real failure.
  {
    std::lock_guard<std::mutex> lock(trace_issue_mutex_);
    if (trace_issue_.has_value()) return *trace_issue_;
  }
  if (mapped->ok() && probe_mode_ == ProbeMode::record) {
    emit(Event::Kind::note, Stage::map,
         threads > 1 ? "probe traces recorded to '" + trace_path_ + ".zone<k>'"
                     : "probe trace recorded to '" + trace_path_ + "'");
  }
  return std::move(*mapped);
}

Status Session::map() {
  if (!scenario_.has_value()) {
    // Before invalidate(): a map seeded via load_map_from_gridml() must
    // survive this argument error.
    emit(Event::Kind::stage_started, Stage::map);
    return fail(Stage::map,
                make_error(ErrorCode::invalid_argument,
                           "session has no scenario; seed the map stage with "
                           "load_map_from_gridml()"));
  }
  invalidate(Stage::map);
  emit(Event::Kind::stage_started, Stage::map);

  // The persistent cache serves the default engine only: trace and
  // fault specs exist to exercise the probe path itself, so a cache hit
  // would defeat record:/replay: (success with no trace touched), and a
  // fault:/replay-lenient: result must never be stored as the
  // platform's truth. Socket specs bypass too: the cache key
  // fingerprints the SCENARIO platform, which a live agent fleet is
  // not — a hit would silently serve simulator truth for a real run.
  const bool use_cache = map_cache_.has_value() && probe_mode_ == ProbeMode::factory &&
                         !socket_roster_.has_value();
  if (map_cache_.has_value() && !use_cache) {
    emit(Event::Kind::note, Stage::map,
         "map cache bypassed (probe engine spec '" + probe_spec_text_ + "')");
  }
  // One key per map() call: computing it serializes the whole platform
  // into the fingerprint, so don't do that twice.
  const std::string key = use_cache ? map_cache_key() : std::string();
  if (use_cache) {
    auto cached = map_cache_->load(key);
    if (cached.ok()) {
      map_ = std::move(cached.value());
      published_view_ = false;
      // This run performed zero probe experiments; the entry keeps the
      // original cost on disk for the curious.
      const std::uint64_t original_experiments = map_->stats.experiments;
      map_->stats = env::MapStats{};
      emit(Event::Kind::note, Stage::map,
           "map stage reloaded from cache entry '" + map_cache_->path_for(key) +
               "' (originally " + std::to_string(original_experiments) + " experiments)");
      // Warnings are part of the result: a reload surfaces them exactly
      // like the probe run that produced them did.
      for (const auto& warning : map_->warnings) {
        emit(Event::Kind::note, Stage::map, "warning: " + warning);
      }
      emit(Event::Kind::stage_finished, Stage::map,
           std::to_string(map_->zones.size()) + " zone(s), 0 experiments (cache hit)");
      return {};
    }
    if (cached.error().code != ErrorCode::not_found) {
      emit(Event::Kind::note, Stage::map,
           "map cache entry ignored: " + cached.error().to_string());
    }
  }

  auto result = probe_map();
  if (!result.ok()) return fail(Stage::map, result.error());
  map_ = std::move(result.value());
  published_view_ = false;
  for (const auto& warning : map_->warnings) {
    emit(Event::Kind::note, Stage::map, "warning: " + warning);
  }
  if (options_.mapper.probe_jobs > 1 && map_->batch.batches > 0) {
    emit(Event::Kind::note, Stage::map,
         "batched probe schedule (probe_jobs=" + std::to_string(options_.mapper.probe_jobs) +
             "): " + strings::format_double(map_->stats.duration_s / 60.0, 1) +
             " min sequential -> " + strings::format_double(map_->batched_duration_s() / 60.0, 1) +
             " min scheduled");
  }
  if (use_cache) {
    if (auto stored = map_cache_->store(key, *map_); stored.ok()) {
      emit(Event::Kind::note, Stage::map,
           "mapped platform persisted to '" + map_cache_->path_for(key) + "'");
    } else {
      emit(Event::Kind::note, Stage::map,
           "map cache store failed: " + stored.error().to_string());
    }
  }
  emit(Event::Kind::stage_finished, Stage::map,
       std::to_string(map_->zones.size()) + " zone(s), " +
           std::to_string(map_->stats.experiments) + " experiments, " +
           strings::format_double(
               static_cast<double>(map_->stats.bytes_sent) / (1024.0 * 1024.0), 1) +
           " MiB injected");
  return {};
}

Status Session::plan() {
  if (!map_.has_value()) {
    if (auto status = map(); !status.ok()) return status;
  }
  invalidate(Stage::plan);
  emit(Event::Kind::stage_started, Stage::plan);
  auto planned = published_view_
                     ? deploy::plan_from_tree(map_->root, map_->master_fqdn, options_.planner)
                     : deploy::plan_deployment(*map_, options_.planner);
  if (!planned.ok()) return fail(Stage::plan, planned.error());
  plan_ = std::move(planned.value());
  if (published_view_) {
    // Without zone information, place one memory on the master and one on
    // each gateway of the published view (the site heads).
    for (const auto& gateway : map_->root.gateways()) {
      if (std::find(plan_->memory_hosts.begin(), plan_->memory_hosts.end(), gateway) ==
          plan_->memory_hosts.end()) {
        plan_->memory_hosts.push_back(gateway);
      }
    }
  }
  config_text_ = deploy::generate_config(*plan_);
  emit(Event::Kind::stage_finished, Stage::plan,
       std::to_string(plan_->cliques.size()) + " clique(s) over " +
           std::to_string(plan_->hosts.size()) + " host(s), " +
           std::to_string(plan_->memory_hosts.size()) + " memory server(s)");
  return {};
}

Status Session::apply() {
  if (!plan_.has_value()) {
    if (auto status = plan(); !status.ok()) return status;
  }
  invalidate(Stage::apply);
  emit(Event::Kind::stage_started, Stage::apply);
  auto system = deploy::apply_plan(*plan_, net_);
  if (!system.ok()) return fail(Stage::apply, system.error());
  system_ = std::move(system.value());
  queries_ = std::make_unique<deploy::QueryService>(*system_, *plan_);
  emit(Event::Kind::stage_finished, Stage::apply,
       "NWS running: nameserver on " + plan_->nameserver_host + ", " +
           std::to_string(plan_->cliques.size()) + " clique(s) circulating");
  return {};
}

Status Session::validate() {
  if (!plan_.has_value()) {
    if (auto status = plan(); !status.ok()) return status;
  }
  invalidate(Stage::validate);
  emit(Event::Kind::stage_started, Stage::validate);
  validation_ = deploy::validate_plan(*plan_, net_, options_.validator);
  emit(Event::Kind::stage_finished, Stage::validate,
       std::string(validation_->complete ? "complete" : "INCOMPLETE") + ", worst collision error " +
           strings::format_double(validation_->worst_collision_error * 100.0, 1) + "%");
  return {};
}

Result<std::unique_ptr<monitor::MonitorDaemon>> Session::make_monitor(
    monitor::MonitorOptions options) {
  if (!plan_.has_value()) {
    if (auto status = plan(); !status.ok()) return status.error();
  }
  auto engine = make_engine(std::nullopt);
  if (!engine.ok()) return engine.error();
  // Incremental re-maps probe with the same tunables the map stage used
  // (probe payload, stabilization gap, thresholds).
  auto daemon = std::make_unique<monitor::MonitorDaemon>(*plan_, std::move(engine.value()),
                                                         options_.mapper, options);
  // The daemon takes over the platform: an applied system's cliques
  // would otherwise probe the same links beside it, uncoordinated, and
  // its host sensors' and name server's messages would run inside the
  // daemon's probe stepping, which never reads them.
  if (system_ != nullptr) system_->stop();
  daemon->set_observer([this](const monitor::MonitorEvent& event) {
    if (observer_ == nullptr) return;  // nothing to format for
    std::string detail = std::string("monitor ") + monitor::to_string(event.kind) +
                         " cycle=" + std::to_string(event.cycle);
    if (!event.segment.empty()) detail += " segment=" + event.segment;
    if (const std::string text = event.describe(); !text.empty()) detail += " " + text;
    emit(Event::Kind::note, Stage::apply, std::move(detail));
  });
  daemon->set_remap_sink([this](const std::string& segment, const env::ZoneMapResult&) {
    // The segment provably changed under the cached map: drop the entry
    // so the next map() re-probes instead of serving a stale platform.
    (void)invalidate_map_cache();
    emit(Event::Kind::note, Stage::apply,
         "monitor re-mapped segment '" + segment + "'; map cache entry invalidated");
  });
  emit(Event::Kind::note, Stage::apply,
       "monitor daemon created: " + std::to_string(daemon->scheduler().probes_per_cycle()) +
           " probe(s)/cycle over " + std::to_string(plan_->cliques.size()) + " clique(s), spec " +
           probe_spec_text_);
  return daemon;
}

Status Session::run_all(bool with_validation) {
  // apply() auto-runs any missing plan()/map() prerequisites itself.
  if (system_ == nullptr) {
    if (auto status = apply(); !status.ok()) return status;
  }
  if (with_validation && !validation_.has_value()) {
    if (auto status = validate(); !status.ok()) return status;
  }
  return {};
}

Status Session::load_map_from_gridml(const std::string& gridml_text, const std::string& master) {
  invalidate(Stage::map);
  auto grid = gridml::GridDoc::parse(gridml_text);
  if (!grid.ok()) return fail(Stage::map, grid.error());
  auto root = env::published_view(grid.value());
  if (!root.ok()) return fail(Stage::map, root.error());
  env::MapResult map;
  map.grid = std::move(grid.value());
  map.root = std::move(root.value());
  map.master_fqdn = map.canonical(master);
  map_ = std::move(map);
  published_view_ = true;
  emit(Event::Kind::note, Stage::map,
       "map stage seeded from published GridML (master " + map_->master_fqdn + ")");
  return {};
}

void Session::invalidate(Stage stage) {
  switch (stage) {
    case Stage::map:
      map_.reset();
      published_view_ = false;
      [[fallthrough]];
    case Stage::plan:
      plan_.reset();
      config_text_.clear();
      [[fallthrough]];
    case Stage::apply:
      queries_.reset();  // references the system; must go first
      if (system_ != nullptr) system_->stop();
      system_.reset();
      [[fallthrough]];
    case Stage::validate:
      validation_.reset();
  }
}

const env::MapResult& Session::map_result() const {
  assert(map_.has_value());
  return *map_;
}
env::MapResult& Session::map_result() {
  assert(map_.has_value());
  return *map_;
}
const deploy::DeploymentPlan& Session::plan_result() const {
  assert(plan_.has_value());
  return *plan_;
}
deploy::DeploymentPlan& Session::plan_result() {
  assert(plan_.has_value());
  return *plan_;
}
nws::NwsSystem& Session::system() {
  assert(system_ != nullptr);
  return *system_;
}
deploy::QueryService& Session::queries() {
  assert(queries_ != nullptr);
  return *queries_;
}
const deploy::ValidationReport& Session::validation() const {
  assert(validation_.has_value());
  return *validation_;
}

std::string Session::render() const {
  std::ostringstream out;
  if (map_.has_value()) {
    out << "=== ENV effective view (master: " << map_->master_fqdn << ") ===\n";
    out << env::render_effective(map_->root);
    out << "\nENV mapping cost: " << map_->stats.experiments << " experiments, "
        << strings::format_double(
               static_cast<double>(map_->stats.bytes_sent) / (1024.0 * 1024.0), 1)
        << " MiB injected, " << strings::format_double(map_->stats.duration_s / 60.0, 1)
        << " simulated minutes\n";
  }
  if (plan_.has_value()) out << "\n=== deployment plan ===\n" << plan_->render();
  if (validation_.has_value()) out << "\n=== validation ===\n" << validation_->render();
  return out.str();
}

}  // namespace envnws::api
