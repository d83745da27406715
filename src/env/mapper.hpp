// The ENV mapper: orchestrates the full methodology of paper §4.2.
//
// Per firewall zone ("we launched ENV on both sides of popc0"):
//   1a. lookup        — hostnames -> identities, SITE grouping (FQDN
//                       domain, falling back to IP class per §4.3)
//   1b. properties    — host inventory capture
//   1c. structural    — traceroute tree towards the zone target
//   2a. host bw       — master->host bandwidths; split clusters at x3
//   2b. pairwise bw   — concurrent master transfers; split independents
//   2c. internal bw   — member<->member bandwidth (ENV_base_local_BW)
//   2d. jammed bw     — 5-repetition jam ratio; shared / switched verdict
// Zone results are then merged through the gateway alias groups (§4.3).
//
// Zones are independent until that merge, so with a ZoneEngineFactory the
// per-zone runs execute concurrently (MapperOptions::map_threads workers)
// and only the merge — performed in spec order on the calling thread —
// is sequential. MapStats::duration_s then reports the makespan of the
// concurrent schedule instead of the sum of the zone durations.
//
// WITHIN a zone, phases 2a-2c issue their experiments through
// ProbeEngine::run_batch in canonical (sequential-schedule) order;
// MapperOptions::probe_jobs sets how many endpoint-disjoint experiments
// the batch schedule may overlap. This never changes what is measured —
// the experiment stream and the MapResult are bit-identical for any
// probe_jobs — it changes the modeled probe cost (BatchStats, credited
// only on segments whose phase-2d verdict is switched; see
// env/batch_schedule.hpp and docs/ARCHITECTURE.md).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "env/env_tree.hpp"
#include "env/options.hpp"
#include "env/probe_engine.hpp"
#include "env/structural.hpp"
#include "gridml/merge.hpp"
#include "gridml/model.hpp"

namespace envnws::env {

/// One ENV run: the machines that can all talk to each other, the
/// viewpoint host, and the traceroute target ("a well known external
/// destination", or the gateway when mapping inside a firewall).
struct ZoneSpec {
  std::string zone_name;
  std::vector<std::string> hostnames;  ///< zone-local names, master included
  std::string master;
  std::string traceroute_target;
};

struct MapStats {
  std::uint64_t experiments = 0;
  std::int64_t bytes_sent = 0;
  /// Probe time. For a merged MapResult this is the wall-clock of the
  /// whole map stage: the sum of the zone durations when zones ran
  /// sequentially, the schedule makespan when they ran concurrently —
  /// which is why there is deliberately no operator+= here.
  double duration_s = 0.0;
};

/// Modeled cost of the batched within-zone probe schedule (phases 2a-2c
/// issued through ProbeEngine::run_batch, list-scheduled over
/// MapperOptions::probe_jobs slots — see env/batch_schedule.hpp).
/// Deliberately NOT part of identity_digest(): the digest captures what
/// was measured, and these numbers describe how the measuring could be
/// scheduled — they vary with probe_jobs by design while the MapResult
/// itself stays bit-identical.
struct BatchStats {
  /// run_batch calls issued (one per refine phase per segment).
  std::uint64_t batches = 0;
  /// Experiments issued through those calls.
  std::uint64_t batched_experiments = 0;
  /// Back-to-back cost of the batched experiments (their share of
  /// MapStats::duration_s).
  double sequential_s = 0.0;
  /// List-scheduled cost over probe_jobs slots. Savings are only
  /// credited on segments whose phase-2d verdict came out `switched`
  /// (a shared medium would have serialized the transfers anyway), so
  /// makespan_s == sequential_s wherever the evidence is missing.
  double makespan_s = 0.0;

  /// sequential_s - makespan_s, i.e. the probe time the batched
  /// schedule saves relative to the paper's sequential one.
  [[nodiscard]] double saved_s() const { return sequential_s - makespan_s; }

  BatchStats& operator+=(const BatchStats& other) {
    batches += other.batches;
    batched_experiments += other.batched_experiments;
    sequential_s += other.sequential_s;
    makespan_s += other.makespan_s;
    return *this;
  }
};

/// Bookkeeping of the hierarchical sampled interrogation
/// (MapperOptions::max_pairwise > 0). Like BatchStats this is
/// deliberately NOT part of identity_digest(): for a fixed sample_seed
/// the sampled result itself is deterministic and digested; these
/// counters only describe how much probing the sampling avoided.
struct SampleStats {
  /// Phase-2b groups that exceeded the budget and were sampled.
  std::uint64_t sampled_groups = 0;
  /// Representatives that ran the full pairwise protocol.
  std::uint64_t representatives = 0;
  /// Members placed transitively without a probe of their own.
  std::uint64_t inferred_members = 0;
  /// Members whose inference confidence was too low: one direct probe each.
  std::uint64_t escalated_members = 0;
  /// Phase-2c clusters whose internal pairs were subsampled.
  std::uint64_t sampled_clusters = 0;
  /// Internal pairs actually measured in those clusters.
  std::uint64_t sampled_internal_pairs = 0;

  SampleStats& operator+=(const SampleStats& other) {
    sampled_groups += other.sampled_groups;
    representatives += other.representatives;
    inferred_members += other.inferred_members;
    escalated_members += other.escalated_members;
    sampled_clusters += other.sampled_clusters;
    sampled_internal_pairs += other.sampled_internal_pairs;
    return *this;
  }
};

struct ZoneMapResult {
  ZoneSpec spec;
  std::string master_fqdn;
  /// The zone's sites; its view is `root`. Mapper::map moves them into
  /// the merged MapResult::grid, so the zones of a MapResult carry none.
  gridml::GridDoc grid;
  StructuralNode structural;
  EnvNetwork root;
  MapStats stats;
  BatchStats batch;
  SampleStats sampling;
  std::vector<std::string> warnings;

  /// Zone probe time under the batched schedule (== stats.duration_s
  /// when probe_jobs is 1 or nothing was batchable).
  [[nodiscard]] double batched_duration_s() const { return stats.duration_s - batch.saved_s(); }
};

struct MapResult {
  std::string master_fqdn;  ///< canonical name of the primary master
  gridml::GridDoc grid;     ///< merged sites + effective NETWORK tree
  EnvNetwork root;          ///< merged effective view
  MapStats stats;
  BatchStats batch;      ///< aggregated over zones (see BatchStats: not digested)
  SampleStats sampling;  ///< aggregated over zones (see SampleStats: not digested)
  std::vector<ZoneMapResult> zones;
  std::vector<std::string> warnings;

  /// Map-stage probe time under the batched schedule. Exact when zones
  /// ran sequentially (stats.duration_s is then the zone sum); with
  /// map_threads > 1 it is an estimate — the zone-level makespan would
  /// have to be re-scheduled over the shortened zones to be exact, so
  /// the subtraction is clamped below by the longest single zone's
  /// batched duration (no schedule beats its longest job) and by zero.
  [[nodiscard]] double batched_duration_s() const;

  /// Canonical machine name for any zone-local name or alias.
  [[nodiscard]] std::string canonical(const std::string& name) const;

  /// Everything observable about this result, rendered at full
  /// precision: master, warnings, grid XML, effective view, stats (17
  /// significant digits) and the per-zone trees. Two results are
  /// "bit-identical" — the guarantee the golden-trace suite, the replay
  /// verifier and the parallel-vs-sequential checks all assert — exactly
  /// when their digests compare equal, so there is ONE definition of
  /// that equality to keep in sync with new fields. The sole exception
  /// is `batch` (and batched_duration_s): schedule metadata that varies
  /// with probe_jobs by design, see BatchStats.
  [[nodiscard]] std::string identity_digest() const;
};

/// Builds the ProbeEngine one zone's ENV run observes the platform with.
/// Called once per zone; when `MapperOptions::map_threads > 1` the calls
/// (and the engines they return) run on thread-pool workers, so each call
/// must return an engine that is independent of every other zone's.
using ZoneEngineFactory =
    std::function<std::unique_ptr<ProbeEngine>(const ZoneSpec& spec, std::size_t zone_index)>;

/// Progress of one zone's ENV run, reported as it happens (the api layer
/// turns these into Observer events).
struct ZoneProgress {
  enum class Phase { started, finished, failed };
  Phase phase = Phase::started;
  std::size_t zone_index = 0;  ///< position in the ZoneSpec list
  std::string zone_name;
  std::string detail;  ///< stats summary / error text
};

/// Progress of one probe batch (the api layer turns these into
/// probe_batch_started / probe_batch_finished events). Reported only
/// when probe_jobs > 1 and the batch holds at least two experiments —
/// i.e. when batching can actually change the schedule — so the event
/// stream of a sequential (probe_jobs == 1) run is untouched.
struct BatchProgress {
  enum class Phase { started, finished };
  Phase phase = Phase::started;
  std::size_t zone_index = 0;
  std::string zone_name;
  std::string stage;    ///< "host-bw" (2a) / "pairwise" (2b) / "internal" (2c)
  std::string label;    ///< segment the batch probes
  std::size_t experiments = 0;
  std::size_t workers = 0;      ///< probe_jobs
  double sequential_s = 0.0;    ///< finished only: back-to-back cost
  double makespan_s = 0.0;      ///< finished only: list-scheduled cost
};

class Mapper {
 public:
  /// A mapper around one shared engine: zones are probed strictly
  /// sequentially (the engine is not assumed to be thread-safe).
  Mapper(ProbeEngine& engine, MapperOptions options = {});
  /// A mapper that builds one engine per zone; zones are probed
  /// concurrently across `options.map_threads` workers. Because every
  /// zone observes the platform through its own engine regardless of the
  /// thread count, the merged MapResult is identical for any
  /// `map_threads` value (deterministic engines assumed, e.g. a
  /// jitter-free SimProbeEngine).
  Mapper(ZoneEngineFactory zone_engines, MapperOptions options = {});

  /// Zone progress callback. Invoked from thread-pool workers when
  /// mapping runs concurrently, but never from two threads at once
  /// (deliveries are serialized by an internal mutex).
  Mapper& set_progress(std::function<void(const ZoneProgress&)> progress);
  /// Batch progress callback (same delivery guarantees; shares the
  /// serializing mutex with zone progress).
  Mapper& set_batch_progress(std::function<void(const BatchProgress&)> progress);

  /// Map one zone (one ENV execution). In per-zone-engine mode,
  /// `zone_index` is forwarded to the factory — pass the spec's real
  /// position when the factory distinguishes zones (e.g. per-zone
  /// scripted traces); it is ignored in shared-engine mode.
  Result<ZoneMapResult> map_zone(const ZoneSpec& spec, std::size_t zone_index = 0);

  /// Map every zone and merge. The first zone is the primary one (its
  /// master becomes the deployment viewpoint); `gateway_aliases` lists
  /// the identities of each dual-homed gateway, exactly the information
  /// the paper says the user must provide for the merge.
  Result<MapResult> map(const std::vector<ZoneSpec>& specs,
                        const std::vector<gridml::AliasGroup>& gateway_aliases = {});

 private:
  struct MachineInfo {
    std::string given_name;  ///< the name the caller supplied (probe key)
    std::string fqdn;        ///< display identity (ip when DNS fails)
    HostIdentity identity;
    bool is_master = false;
  };

  /// One zone's machines and the per-host state refine and convert
  /// share. Built once per zone, so their work stays O(hosts) however
  /// many structural nodes the zone has.
  struct ZoneHosts {
    std::vector<MachineInfo> all;
    /// The first machine of `all` with a given fqdn / address.
    std::unordered_map<std::string, std::size_t> by_fqdn;
    std::unordered_map<std::string, std::size_t> by_ip;
    /// Phase-2a bandwidths master -> host and host -> master, indexed
    /// like `all`. A host reads 0.0 until its node's refine measures it.
    std::vector<double> bw;
    std::vector<double> reverse_bw;

    explicit ZoneHosts(std::vector<MachineInfo> machines);
  };

  /// Per-zone context threaded through refine/convert: which zone the
  /// batches belong to (for progress events) and where their modeled
  /// cost accumulates.
  struct BatchContext {
    std::size_t zone_index = 0;
    const std::string* zone_name = nullptr;
    BatchStats* stats = nullptr;
    SampleStats* sampling = nullptr;
  };

  /// Issue one phase's experiments as a probe batch in canonical order
  /// and account/report its modeled schedule. `credit_makespan` false
  /// defers the makespan credit to the caller (phase 2c waits for the
  /// phase-2d verdict); the computed makespan is returned either way.
  std::vector<ProbeExperimentOutcome> run_phase_batch(
      ProbeEngine& engine, const BatchContext& ctx, const std::string& stage,
      const std::string& label, const std::vector<ProbeExperiment>& experiments,
      bool credit_makespan, double* makespan_out) const;

  /// Refine the machines attached to one structural node into classified
  /// EnvNetworks (phases 2a-2d). `machines` are indices into `hosts.all`.
  /// Pure per-zone work: touches only `engine` and its own arguments, so
  /// zones can run on concurrent workers with separate engines.
  std::vector<EnvNetwork> refine(ProbeEngine& engine, const BatchContext& ctx, ZoneHosts& hosts,
                                 const std::vector<std::size_t>& machines,
                                 const MachineInfo& master, const std::string& label,
                                 const std::string& label_ip,
                                 std::vector<std::string>& warnings) const;

  EnvNetwork convert(ProbeEngine& engine, const BatchContext& ctx, const StructuralNode& node,
                     ZoneHosts& hosts, const MachineInfo& master,
                     std::vector<std::string>& warnings, bool is_root) const;

  /// One full ENV run against an explicit engine (the per-zone body).
  Result<ZoneMapResult> map_zone_with(ProbeEngine& engine, const ZoneSpec& spec,
                                      std::size_t zone_index) const;

  /// Map every zone, sequentially or on a pool, preserving spec order.
  std::vector<Result<ZoneMapResult>> map_zones(const std::vector<ZoneSpec>& specs);

  void report(const ZoneProgress& progress) const;
  void report(const BatchProgress& progress) const;

  ProbeEngine* engine_ = nullptr;        ///< shared-engine mode
  ZoneEngineFactory zone_engines_;       ///< per-zone-engine mode
  MapperOptions options_;
  std::function<void(const ZoneProgress&)> progress_;
  std::function<void(const BatchProgress&)> batch_progress_;
  mutable std::mutex progress_mutex_;
};

}  // namespace envnws::env
