// The probe agent: an NWS-style sensor process for SocketProbeEngine.
//
// One agent runs per mapped host (Wolski's NWS deploys exactly such
// long-lived sensor daemons). It answers the wire protocol of
// env/probe_wire.hpp on a TCP listener:
//
//   HELLO  -> the host's identity (fqdn, ip, inventory properties)
//   PING   -> PONG echo (the engine times RTT trains client-side)
//   BWXFER -> run one bulk transfer TO another agent: the agent dials
//             the peer, streams `bytes` of payload through a BULK
//             frame, and relays the peer's timing verdict back
//   STATS  -> the agent's own cumulative experiment counters
//   BULK   -> the receiving half of a transfer: sink the payload, time
//             it, reply BULK-OK with the elapsed seconds
//
// Determinism for offline-first validation: with `fixed_rate_bps > 0`
// the receiving agent REPORTS `bytes * 8 * streams / rate` seconds
// instead of the measured wall time (`streams` is the engine-declared
// number of transfers sharing the sending NIC, so concurrent probes see
// source fair-share contention exactly like a real adapter) — the
// transferred bytes still cross a real TCP connection, only the
// reported timing is modeled, which is what makes loopback mapping
// digests reproducible across runs and probe_jobs values. With
// `pace = true` the agent additionally sleeps so the wall time tracks
// the reported time, giving the loopback bench honest wall-clock
// behavior. `fixed_rate_bps == 0` is the real mode: measured wall time.
//
// The class is embeddable (the loopback test fixture spawns N agents
// in-process on ephemeral ports); `examples/probe_agent` wraps it as a
// standalone daemon.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/result.hpp"
#include "env/probe_engine.hpp"
#include "env/probe_wire.hpp"

namespace envnws::env {

struct ProbeAgentConfig {
  std::string name;  ///< the roster host name this agent serves
  std::string fqdn;  ///< HELLO identity; empty models failed reverse DNS
  std::string ip = "127.0.0.1";
  std::map<std::string, std::string> properties;  ///< HELLO inventory

  std::string listen_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; real port via ProbeAgent::port()

  /// > 0: deterministic reported transfer timing (see file comment).
  double fixed_rate_bps = 0.0;
  /// Fraction of `fixed_rate_bps` a payload actually extracts (lv08 TCP
  /// correction: 0.97). Applied to the deterministic reported timing
  /// only, so a fleet paced this way produces golden traces whose
  /// bandwidths a tcp-lv08 simnet model should predict — the
  /// calibration contract's "real" side. 1.0 = plain pacing.
  double usable_fraction = 1.0;
  /// Sleep so wall time matches the deterministic reported time.
  bool pace = false;
  /// Bound on every frame/bulk I/O operation the agent performs.
  double io_timeout_s = 30.0;
};

class ProbeAgent {
 public:
  explicit ProbeAgent(ProbeAgentConfig config);
  ProbeAgent(const ProbeAgent&) = delete;
  ProbeAgent& operator=(const ProbeAgent&) = delete;

  /// Bind, listen and start serving on a background thread.
  Status start() { return server_.start(config_.listen_address, config_.port); }
  /// Stop serving: wakes every in-flight connection and joins all
  /// threads. Idempotent; also called by the destructor.
  void stop() { server_.stop(); }

  [[nodiscard]] const ProbeAgentConfig& config() const { return config_; }
  /// The bound port (the ephemeral one when config().port was 0).
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] bool running() const { return server_.running(); }

  /// Cumulative counters of the experiments THIS agent sourced
  /// (BWXFER) — the same numbers the STATS frame serves.
  [[nodiscard]] ProbeStats stats() const;

 private:
  /// Handle one control message; returns the reply payload.
  std::string handle(const wire::WireMessage& message, wire::FrameServer::Peer& peer);
  std::string handle_bwxfer(const wire::WireMessage& message);
  std::string handle_bulk(const wire::WireMessage& message, wire::FrameServer::Peer& peer);

  ProbeAgentConfig config_;
  mutable std::mutex mutex_;  ///< guards stats_
  ProbeStats stats_;
  /// Declared last, so it is destroyed — and its connection threads
  /// joined — before the state the handler reads.
  wire::FrameServer server_;
};

}  // namespace envnws::env
