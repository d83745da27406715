// The envnws monitoring daemon (docs/MONITORD.md).
//
// A MonitorDaemon closes the loop the paper leaves open between ENV's
// one-shot map and NWS's continuous measurement: it takes a validated
// deploy::DeploymentPlan, schedules that plan's clique experiments over
// any ProbeEngine (live socket fleet, simulator, or a recorded trace —
// the engine spec decides, the daemon never knows), streams the results
// into the series store, folds the pairs that cycle touched into an
// immutable MonitorSnapshot (RCU publication, see monitor/snapshot.hpp),
// and watches per-pair forecast error for drift.
// When a segment drifts it re-probes ONLY that segment through the ENV
// Mapper — an incremental re-map, orders of magnitude cheaper than
// re-mapping the platform.
//
// Determinism contract: with a deterministic engine (replay:, sim) the
// whole daemon is a pure function of (plan, engine, options, cycle
// count). The virtual clock ties timestamps to cycle counts, run_batch
// returns canonical-order results for any probe_jobs, drift decisions
// are made in sorted segment order, and snapshots digest only what was
// measured — so the replay suite can assert bit-identical digests and
// identical decision logs across runs and query loads.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "deploy/plan.hpp"
#include "env/mapper.hpp"
#include "env/options.hpp"
#include "env/probe_engine.hpp"
#include "monitor/drift.hpp"
#include "monitor/query_server.hpp"
#include "monitor/schedule.hpp"
#include "monitor/snapshot.hpp"
#include "monitor/store.hpp"

namespace envnws::monitor {

struct MonitorOptions {
  /// Virtual seconds per measurement cycle (the series timestamp step).
  double period_s = 1.0;
  /// Endpoint-disjoint experiments one cycle's batch may overlap
  /// (forwarded to ProbeEngine::run_batch; never changes what is
  /// measured).
  std::size_t probe_jobs = 1;
  DriftPolicy drift;
  /// Re-probe a drifting segment through the ENV mapper (false: detect
  /// and report only).
  bool remap_on_drift = true;
  /// start() only: sleep one period of real time per cycle. run_cycles()
  /// never paces — offline runs and tests go full speed.
  bool pace = true;
  /// Schedule-exploration seam (src/testing/): when set, the cycle's
  /// batch dispatch AND the order outcomes are folded into the store
  /// become scheduler decisions, so tests can permute them and assert
  /// the determinism contract holds. Must outlive the daemon; null (the
  /// default) is production behavior. Only meaningful for run_cycles()
  /// — the seam is not wired into the background start() loop.
  testing::VirtualScheduler* virtual_scheduler = nullptr;
};

struct MonitorEvent {
  enum class Kind {
    cycle_finished,
    snapshot_published,
    probe_failed,
    drift_detected,
    remap_started,
    remap_finished,
    remap_failed,
  };
  Kind kind = Kind::cycle_finished;
  std::uint64_t cycle = 0;  ///< cycles completed when the event fired
  double time_s = 0.0;      ///< virtual clock
  std::string segment;      ///< drift/remap/probe events: the segment
  std::string detail;       ///< drift/remap/probe events: what happened
  /// cycle_finished: probes the cycle scheduled, and how many failed.
  std::size_t probes = 0;
  std::size_t failures = 0;
  /// snapshot_published: the snapshot just published. Its digest is
  /// computed when someone first reads it, not for the event.
  std::shared_ptr<const MonitorSnapshot> snapshot;

  /// The event's text after its kind, cycle and segment: `detail`, or
  /// `probes=N failures=F` (cycle_finished), or `version=V digest=D`
  /// (snapshot_published, which reads the digest).
  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] const char* to_string(MonitorEvent::Kind kind);

class MonitorDaemon {
 public:
  /// The daemon owns its engine: all probing — periodic cycles and
  /// incremental re-maps alike — flows through this one instance, so a
  /// `record:` spec captures the complete session and a `replay:` spec
  /// reproduces it. Incremental re-maps probe with `remap`, the mapper
  /// tunables of the map they refresh.
  MonitorDaemon(deploy::DeploymentPlan plan, std::unique_ptr<env::ProbeEngine> engine,
                env::MapperOptions remap, MonitorOptions options = {});
  ~MonitorDaemon();

  MonitorDaemon(const MonitorDaemon&) = delete;
  MonitorDaemon& operator=(const MonitorDaemon&) = delete;

  /// Event callback; deliveries are serialized (measurement-loop thread).
  MonitorDaemon& set_observer(std::function<void(const MonitorEvent&)> observer);

  /// Called after every successful incremental re-map with the fresh
  /// zone view (api::Session wires this into its MapCache).
  using RemapSink = std::function<void(const std::string& segment, const env::ZoneMapResult&)>;
  MonitorDaemon& set_remap_sink(RemapSink sink);

  /// Run `n` measurement cycles synchronously (never paces). The
  /// deterministic entry point: tests and offline replays use this.
  Status run_cycles(std::uint64_t n);

  /// Run cycles on a background thread until stop() (paced per
  /// MonitorOptions::pace). Queries are served concurrently either way.
  Status start();
  void stop();
  [[nodiscard]] bool running() const;

  /// Serve SNAPSHOT/QUERY/SERIES clients; port 0 picks an ephemeral one.
  Status start_query_server(const std::string& address = "127.0.0.1", std::uint16_t port = 0);
  [[nodiscard]] std::uint16_t query_port() const;
  [[nodiscard]] std::uint64_t queries_served() const;

  /// The currently published snapshot (one pointer copy, never null).
  [[nodiscard]] std::shared_ptr<const MonitorSnapshot> snapshot() const {
    return board_.current();
  }
  [[nodiscard]] std::vector<nws::Measurement> series(const nws::SeriesKey& key,
                                                     std::size_t max = 0) const {
    return store_.series(key, max);
  }

  /// Persistence: nws::MemoryServer dump grammar, restore() re-trains
  /// forecasters from the history (see SeriesStore).
  [[nodiscard]] std::string dump_series() const { return store_.dump(); }
  Status restore_series(const std::string& text) { return store_.restore(text); }

  /// Decision-log lines kept: the newest ones, oldest dropped first.
  static constexpr std::size_t kDecisionHistory = 1024;

  /// One line per drift decision, in decision order, the newest
  /// kDecisionHistory of them — part of the determinism contract
  /// (replays produce identical logs).
  [[nodiscard]] std::vector<std::string> decision_log() const;

  [[nodiscard]] std::uint64_t cycles() const { return cycles_done_.load(); }
  [[nodiscard]] std::uint64_t measurements() const { return measurements_.load(); }
  [[nodiscard]] std::uint64_t probe_failures() const { return probe_failures_.load(); }
  [[nodiscard]] std::uint64_t remaps() const { return remaps_.load(); }
  /// Probe experiments the incremental re-maps cost (the "cheaper than a
  /// full re-map" number the acceptance test asserts on).
  [[nodiscard]] std::uint64_t remap_experiments() const { return remap_experiments_.load(); }

  /// A bandwidth series' drift/re-map segment: that of the first clique
  /// in plan order scheduling the pair (nullptr when none does).
  [[nodiscard]] const std::string* segment_of(const nws::SeriesKey& key) const;

  [[nodiscard]] const deploy::DeploymentPlan& plan() const { return plan_; }
  [[nodiscard]] const CycleScheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] env::ProbeEngine& engine() { return *engine_; }

 private:
  /// The first clique in plan order listing both hosts (from != to).
  [[nodiscard]] const deploy::PlannedClique* first_clique(const std::string& from,
                                                          const std::string& to) const;
  void run_one_cycle();
  /// Detect drift, decide per segment (sorted order), maybe re-map;
  /// returns the segments still drifting afterwards (for the snapshot).
  std::vector<std::string> drift_pass();
  Status remap_segment(const std::string& segment, std::size_t pairs_drifting);
  void publish_snapshot(std::vector<std::string> drifting_segments);
  /// Stamp `event` with the clock and deliver it (a no-op without an
  /// observer; per-cycle callers build no text unless one is set).
  void emit(MonitorEvent event);
  void emit(MonitorEvent::Kind kind, std::string segment, std::string detail);
  void log_decision(std::string line);

  deploy::DeploymentPlan plan_;
  std::unique_ptr<env::ProbeEngine> engine_;
  env::MapperOptions remap_;
  MonitorOptions options_;
  MonitorClock clock_;
  CycleScheduler scheduler_;
  SeriesStore store_;
  SnapshotBoard board_;
  /// run_one_cycle's buffers, kept so a warm cycle reuses their storage.
  std::vector<ScheduledProbe> probes_;
  std::vector<env::ProbeExperiment> experiments_;
  std::vector<std::size_t> record_order_;
  std::unique_ptr<QueryServer> query_server_;

  /// segment -> hosts it spans (for the re-map ZoneSpec).
  std::map<std::string, std::set<std::string>> segment_hosts_;
  /// host -> the plan_.cliques (2+ members) listing it, by index, ascending.
  std::map<std::string, std::vector<std::size_t>> host_cliques_;
  /// segment -> first cycle it may trigger drift again.
  std::map<std::string, std::uint64_t> segment_cooldown_until_;

  std::atomic<std::uint64_t> cycles_done_{0};
  std::atomic<std::uint64_t> measurements_{0};
  std::atomic<std::uint64_t> probe_failures_{0};
  std::atomic<std::uint64_t> remaps_{0};
  std::atomic<std::uint64_t> remap_experiments_{0};
  std::uint64_t snapshot_version_ = 0;  ///< measurement-loop thread only

  std::function<void(const MonitorEvent&)> observer_;
  RemapSink remap_sink_;

  mutable std::mutex decision_mutex_;
  std::deque<std::string> decisions_;

  mutable std::mutex run_mutex_;  ///< loop ownership + background state
  bool running_ = false;
  std::atomic<bool> stopping_{false};
  std::thread loop_;
};

}  // namespace envnws::monitor
