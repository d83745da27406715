// api::Session — the paper's pipeline as a staged, observable object.
//
// The four stages of the title ("automatic deployment of the NWS using
// an effective network view": map the platform with ENV, derive a
// deployment plan, apply it, validate the §2.3 constraints) are
// individually runnable and resumable:
//
//   api::Session session(net, scenario);
//   session.map();       // probe the platform (or load a cached view)
//   session.plan();      // re-runnable with different planner options
//   session.apply();     // launch the NWS processes
//   session.validate();  // check the four deployment constraints
//
// Calling a stage whose prerequisites have not run yet runs them first;
// calling a stage again re-runs it from the cached output of the stage
// before it and drops everything downstream. `load_map_from_gridml()`
// seeds the map stage without probing — the §4.3 "publish the mapping"
// workflow — so a platform mapped once can be re-planned forever; `set_map_cache()` makes that durable across
// processes (a second map() of the same spec performs zero probes).
// Probing itself goes through a pluggable `ProbeEngineFactory`
// (simulator by default; scripted traces and real sockets implement the
// same `env::ProbeEngine` interface) and fans out over firewall zones
// when `options().mapper.map_threads > 1` — with deterministic engines
// (e.g. the default simulator without measurement jitter) the merged
// view is bit-identical to the sequential one, it just arrives sooner.
// `options().mapper.probe_jobs > 1` additionally batches the
// within-zone experiments of mapping phases 2a-2c (see
// env/batch_schedule.hpp): the experiment stream and the MapResult stay
// bit-identical, the modeled probe cost (`MapResult::batch`) and batch
// observer events report what the concurrent schedule saves.
//
// Progress flows through `api::Observer` (see observer.hpp).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "api/map_cache.hpp"
#include "api/observer.hpp"
#include "common/result.hpp"
#include "deploy/manager.hpp"
#include "deploy/plan.hpp"
#include "deploy/planner.hpp"
#include "deploy/query.hpp"
#include "deploy/validate.hpp"
#include "env/fault_probe_engine.hpp"
#include "env/mapper.hpp"
#include "env/options.hpp"
#include "env/probe_engine.hpp"
#include "env/probe_wire.hpp"
#include "env/trace_probe_engine.hpp"
#include "monitor/daemon.hpp"
#include "simnet/scenario.hpp"

namespace envnws::api {

struct SessionOptions {
  env::MapperOptions mapper;
  deploy::PlannerOptions planner;
  deploy::ValidatorOptions validator;
};

/// Builds the probe engine the map stage observes the platform with.
using ProbeEngineFactory = std::function<std::unique_ptr<env::ProbeEngine>(
    simnet::Network& net, const env::MapperOptions& options)>;

class Session {
 public:
  /// A session around a scenario: zones and gateway aliases for the map
  /// stage are derived from it.
  Session(simnet::Network& net, simnet::Scenario scenario, SessionOptions options = {});
  /// A session without a scenario: the map stage must be seeded through
  /// `load_map_from_gridml()`.
  Session(simnet::Network& net, SessionOptions options = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Observer is not owned; nullptr disables events. Delivery is
  /// serialized and sequence-stamped (see observer.hpp): safe even when
  /// the map stage probes zones on `options().mapper.map_threads` workers.
  Session& set_observer(Observer* observer);
  /// Replace the probe backend (default: env::SimProbeEngine). With
  /// `map_threads > 1` the factory is invoked once per firewall zone,
  /// each call receiving a private replica of the scenario platform, so
  /// the engines can probe concurrently. Either way every call reaches
  /// the factory's engine, its run_batch override included.
  Session& set_probe_engine_factory(ProbeEngineFactory factory);
  /// Configure the probe backend from a spec string (docs/TESTING.md,
  /// docs/SOCKET_ENGINE.md):
  ///   "sim"                   — the engine factory alone (the default)
  ///   "socket:<agents.cfg>"   — env::SocketProbeEngine over the agent
  ///                             roster at <agents.cfg>: REAL TCP
  ///                             experiments against probe-agent daemons
  ///   "record:<path>"         — base engine, every experiment appended
  ///                             to the ENVTRACE file at <path>
  ///   "replay:<path>"         — strict replay of <path>: ZERO live probes;
  ///                             any out-of-trace request fails map() with
  ///                             the offending experiment index
  ///   "replay-lenient:<path>" — replay; out-of-trace requests fall back
  ///                             to the base engine
  ///   "fault:<rules>"         — base engine behind fault injection,
  ///                             e.g. "fault:bw#3=fail:timeout,cbw*=scale:0.5"
  /// The decorating specs (record:/replay-lenient:/fault:) take an
  /// optional "@<base>" suffix selecting the base engine they wrap:
  /// "@sim" (the factory, the default) or "@socket:<agents.cfg>" — so
  /// "record:run.envtrace@socket:agents.cfg" maps through live sockets
  /// while producing a golden trace that later replays bit-identically
  /// offline, agents long gone. "replay:" is offline by definition and
  /// rejects a base suffix.
  /// With `map_threads > 1` each zone records/replays its own file at
  /// `<path>.zone<k>` (a sequential trace holds all zones in one file, so
  /// traces replay with the thread mode they were recorded with).
  /// Single-file replay traces are parsed eagerly — missing or malformed
  /// files fail here; a per-zone recording is detected by its `.zone0`
  /// file and the zone files load (and may fail) at map() time, one per
  /// zone engine. Any spec but "sim" bypasses the persistent map cache:
  /// a cache hit would defeat record:/replay:, and fault:/replay-lenient:
  /// results must never be stored as the platform's truth.
  Status set_probe_engine_spec(const std::string& spec);
  [[nodiscard]] const std::string& probe_engine_spec() const { return probe_spec_text_; }

  /// Enable the persistent map cache: map() first tries to reload the
  /// mapped platform from `directory` (zero probe experiments on a hit)
  /// and persists a fresh mapping after probing. Entries are keyed by
  /// `label` plus a hash of the probe-relevant mapper options (see
  /// MapCache::key_for). The default label is the scenario's name — the
  /// registry stamps the canonical spec string — coupled with a
  /// fingerprint of the platform itself, so a platform changed under an
  /// unchanged name misses; pass an explicit label to opt out.
  Session& set_map_cache(std::string directory, std::string label = {});
  /// Drop this session's cache entry (the explicit invalidation of the
  /// "re-probe a changed platform" workflow). No-op without a cache.
  Status invalidate_map_cache();
  /// The configured cache; nullptr without one.
  [[nodiscard]] const MapCache* map_cache() const {
    return map_cache_.has_value() ? &*map_cache_ : nullptr;
  }

  // --- stages -------------------------------------------------------------
  Status map();
  Status plan();
  Status apply();
  Status validate();
  /// map -> plan -> apply [-> validate]; stages already run are reused.
  Status run_all(bool with_validation = true);

  // --- stage reuse --------------------------------------------------------
  /// Seed the map stage from published GridML text (§4.3 "Bandwidth
  /// waste": deploy from the published mapping without redoing it).
  /// Memory servers are later placed on the master and on every gateway
  /// named in the view, since zone data is not published.
  Status load_map_from_gridml(const std::string& gridml_text, const std::string& master);
  /// Drop `stage`'s output and everything downstream of it.
  void invalidate(Stage stage);

  /// Mutable: tweak between stage runs (e.g. re-plan with host locks).
  SessionOptions& options() { return options_; }
  [[nodiscard]] simnet::Network& network() { return net_; }

  // --- stage outputs (valid once the stage has run) -----------------------
  [[nodiscard]] const env::MapResult& map_result() const;
  [[nodiscard]] env::MapResult& map_result();
  [[nodiscard]] const deploy::DeploymentPlan& plan_result() const;
  [[nodiscard]] deploy::DeploymentPlan& plan_result();
  [[nodiscard]] const std::string& config_text() const { return config_text_; }
  [[nodiscard]] nws::NwsSystem& system();
  [[nodiscard]] deploy::QueryService& queries();
  [[nodiscard]] const deploy::ValidationReport& validation() const;

  // --- monitoring ---------------------------------------------------------
  /// Build a monitoring daemon (src/monitor/, docs/MONITORD.md) over this
  /// session's deployment plan and probe-engine spec, running plan()
  /// first when needed. The daemon owns a fresh sequential engine built
  /// from the current spec — so "replay:<trace>" monitors fully offline
  /// and "record:<trace>@socket:<roster>" captures a live session for
  /// later replay — and its incremental re-maps probe with this
  /// session's mapper options, exactly like the map stage did. Daemon
  /// events surface as Stage::apply notes through the session
  /// observer, and a successful incremental re-map
  /// invalidates the session's map-cache entry: the platform provably
  /// changed under the cached view. The daemon must not outlive the
  /// session.
  /// When an NWS is applied, the daemon takes over the platform: the
  /// whole applied system stops (cliques, host sensors and any
  /// uncoordinated probe), so `queries()` then serves every series,
  /// CPU, memory and disk included, as it stood when the daemon was
  /// created. Calling apply() again deploys a fresh system that runs
  /// everything beside the daemon again.
  Result<std::unique_ptr<monitor::MonitorDaemon>> make_monitor(
      monitor::MonitorOptions options = {});

  /// One-page report of every stage that has run so far.
  [[nodiscard]] std::string render() const;

 private:
  void emit(Event::Kind kind, Stage stage, std::string detail = {}, std::string zone = {},
            int zone_index = -1);
  Status fail(Stage stage, const Error& error);
  [[nodiscard]] std::string map_cache_key() const;
  /// Probe every zone (sequentially on net_, or concurrently on private
  /// platform replicas when map_threads > 1) and merge.
  Result<env::MapResult> probe_map();
  /// The one engine builder of the probe spec. The base engine (a
  /// SocketProbeEngine over the "socket:" roster, the engine factory
  /// otherwise) is wrapped once in the spec's decorator (record, replay
  /// or fault). Without `zone` the engine probes net_ and uses the trace
  /// path as given: the sequential map run and the monitor. With `zone`
  /// it is one zone's engine of a concurrent map run: it uses that
  /// zone's `.zone<k>` trace file and, unless the base is socket or the
  /// spec is strict replay, probes a private replica of the platform,
  /// which a ReplicaEngine around the decorated engine keeps alive.
  Result<std::unique_ptr<env::ProbeEngine>> make_engine(std::optional<std::size_t> zone);
  /// First replay violation / trace build failure of the current map run
  /// (thread-safe: zone engines report from pool workers).
  void record_trace_issue(const Error& error);

  enum class ProbeMode { factory, record, replay_strict, replay_lenient, fault };

  simnet::Network& net_;
  std::optional<simnet::Scenario> scenario_;
  SessionOptions options_;
  Observer* observer_ = nullptr;
  /// Serializes observer deliveries (map-stage workers emit zone events)
  /// and guards the sequence counter.
  std::mutex event_mutex_;
  std::uint64_t event_sequence_ = 0;
  ProbeEngineFactory engine_factory_;
  ProbeMode probe_mode_ = ProbeMode::factory;
  std::string probe_spec_text_ = "sim";
  /// Base engine of the spec: a loaded "socket:" roster, or nullopt for
  /// the engine factory. Orthogonal to probe_mode_ (the decorator).
  std::optional<env::wire::AgentRoster> socket_roster_;
  std::string trace_path_;
  /// Eagerly parsed single-file replay trace; unset for per-zone
  /// (threaded) recordings, which load lazily per zone.
  std::optional<env::ProbeTrace> replay_trace_;
  env::FaultSpec fault_spec_;
  std::mutex trace_issue_mutex_;
  std::optional<Error> trace_issue_;
  std::optional<MapCache> map_cache_;
  std::string map_cache_label_;

  std::optional<env::MapResult> map_;
  /// The map was loaded from published GridML (no zone information).
  bool published_view_ = false;
  std::optional<deploy::DeploymentPlan> plan_;
  std::string config_text_;
  std::unique_ptr<nws::NwsSystem> system_;
  std::unique_ptr<deploy::QueryService> queries_;
  std::optional<deploy::ValidationReport> validation_;
};

}  // namespace envnws::api
