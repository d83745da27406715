// ProbeEngine backed by real TCP sockets and probe agents.
//
// The first backend that actually interrogates a network instead of a
// model of one: every mapped host runs a `env::ProbeAgent` (an
// NWS-style sensor process), the engine finds them through an
// `AgentRoster` (`<host> <ipv4>:<port>` per line) and drives the wire
// protocol of env/probe_wire.hpp:
//
//   lookup      -> HELLO to the host's agent (identity + inventory)
//   traceroute  -> synthesized direct route to the target (user-level
//                  TCP agents cannot run TTL games; the structural
//                  phase degenerates to one flat segment that phases
//                  2a-2d then refine — see docs/SOCKET_ENGINE.md)
//   bandwidth   -> BWXFER: the source agent streams a timed bulk
//                  transfer to the sink agent and relays its verdict
//   concurrent  -> the same transfers started together on parallel
//                  control connections, with the engine-declared
//                  `streams` count modeling source-NIC fair share
//
// This is also the first engine whose `run_batch` is genuinely
// concurrent: endpoint-disjoint experiments of one batch are dispatched
// onto up to `workers` simultaneous agent connections — the greedy
// schedule `env/batch_schedule.hpp` models, realized. The canonical
// contract holds: results return in batch order, experiments sharing an
// endpoint never overlap, and the engine's cumulative stats are folded
// in canonical order AFTER the batch, so the MapResult (and its
// identity_digest) is bit-identical for every `workers` value whenever
// the agents report deterministic timings (ProbeAgentConfig::
// fixed_rate_bps — the offline-first validation mode).
//
// Every failure is a `Result`: a dead agent is `unreachable`, a silent
// one `timeout` (all socket operations carry the bounded timeouts of
// `SocketEngineOptions`), malformed replies are `protocol` — the mapper
// downgrades them to per-host warnings exactly like simulator probe
// failures, so an agent dying mid-mapping degrades the map instead of
// hanging it.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env/options.hpp"
#include "env/probe_engine.hpp"
#include "env/probe_wire.hpp"

namespace envnws::env {

struct SocketEngineOptions {
  double connect_timeout_s = 5.0;   ///< dialing an agent
  double frame_timeout_s = 10.0;    ///< control-frame round trips (HELLO/PING/STATS)
  double transfer_timeout_s = 60.0; ///< full BWXFER completion bound
  /// Global bound on idle pooled connections, across ALL hosts: when a
  /// released connection would exceed it, the least-recently-used idle
  /// connection anywhere in the pool is closed. A monitord driving
  /// thousands of agents thus holds at most this many idle sockets,
  /// while a small fleet still reuses every connection. Minimum 1 (a
  /// released connection always pools; eviction happens afterwards).
  std::size_t max_idle_sockets = 32;
};

class SocketProbeEngine final : public ProbeEngine {
 public:
  SocketProbeEngine(wire::AgentRoster roster, const MapperOptions& options,
                    SocketEngineOptions socket_options = {});
  ~SocketProbeEngine() override;

  Result<HostIdentity> lookup(const std::string& hostname) override;
  Result<std::vector<TraceHop>> traceroute(const std::string& from,
                                           const std::string& target) override;
  Result<double> bandwidth(const std::string& from, const std::string& to) override;
  std::vector<Result<double>> concurrent_bandwidth(
      const std::vector<BandwidthRequest>& requests) override;
  /// Genuinely concurrent (see file comment): up to `workers` agent
  /// connections in flight, endpoint-disjoint experiments only, results
  /// and stats in canonical order.
  std::vector<ProbeExperimentOutcome> run_batch(const std::vector<ProbeExperiment>& experiments,
                                                std::size_t workers) override;
  [[nodiscard]] ProbeStats stats() const override;

  /// Schedule-exploration seam: when set, each free batch worker asks
  /// the scheduler which startable experiment to take ("socket"
  /// decision point, serialized under the batch mutex) instead of
  /// canonical-first. The engine never permutes RESULT order — outcomes
  /// and stats stay canonical regardless — which is exactly what the
  /// harness asserts. The scheduler must outlive every run_batch call;
  /// null restores the production greedy rule.
  void set_virtual_scheduler(testing::VirtualScheduler* scheduler) { scheduler_ = scheduler; }

  [[nodiscard]] const wire::AgentRoster& roster() const { return roster_; }
  /// Idle pooled connections right now, across every host — always
  /// <= SocketEngineOptions::max_idle_sockets (the LRU bound).
  [[nodiscard]] std::size_t idle_sockets() const;

 private:
  /// One pooled control connection to an agent.
  struct AgentConn {
    wire::TcpSocket socket;
    wire::FrameBuffer buffer;
    bool reused = false;  ///< came out of the pool (may be stale)
    /// Release serial, stamped when the connection enters the pool; the
    /// global LRU eviction closes the smallest stamp first.
    std::uint64_t released_at = 0;
  };
  /// What one experiment did to the engine's stats; applied in
  /// canonical order so totals are order-independent bit for bit.
  struct StatsDelta {
    std::uint64_t experiments = 0;
    std::int64_t bytes = 0;
    double busy_s = 0.0;
  };
  struct Measured {
    Result<double> bandwidth_bps;
    double seconds = 0.0;
    std::int64_t bytes = 0;
    Measured() : bandwidth_bps(make_error(ErrorCode::internal, "not measured")) {}
  };

  [[nodiscard]] Result<wire::AgentEndpoint> resolve(const std::string& host) const;
  /// Pop an idle connection to `host` or dial a fresh one.
  Result<std::unique_ptr<AgentConn>> acquire(const std::string& host);
  /// Return a healthy connection to the pool (broken ones are dropped
  /// by simply not releasing them).
  void release(const std::string& host, std::unique_ptr<AgentConn> conn);
  /// Discard every idle connection to `host` (stale-pool flush).
  void drop_pool(const std::string& host);
  /// One frame round trip on a pooled connection. A socket-level
  /// failure on a REUSED connection (closed while idling in the pool)
  /// is retried once on a fresh dial before it is reported.
  Result<wire::WireMessage> round_trip(const std::string& host, const wire::WireMessage& request,
                                       double timeout_s);

  /// One transfer, no stats side effects (pure measurement).
  Measured measure(const BandwidthRequest& request, int streams);
  /// Run one whole experiment (single or concurrent), returning its
  /// outcome and stats delta without touching stats_.
  void run_experiment(const ProbeExperiment& experiment, ProbeExperimentOutcome& outcome,
                      StatsDelta& delta);
  void apply(const StatsDelta& delta);

  wire::AgentRoster roster_;
  MapperOptions options_;
  SocketEngineOptions socket_options_;
  testing::VirtualScheduler* scheduler_ = nullptr;  ///< batch-dispatch seam

  mutable std::mutex mutex_;  ///< pool_, identities_, stats_, idle/stamp counters
  std::map<std::string, std::vector<std::unique_ptr<AgentConn>>> pool_;
  std::uint64_t release_serial_ = 0;  ///< monotonic LRU clock
  std::size_t idle_count_ = 0;        ///< connections across pool_ (== sum of sizes)
  std::map<std::string, HostIdentity> identities_;  ///< HELLO cache
  ProbeStats stats_;
};

}  // namespace envnws::env
