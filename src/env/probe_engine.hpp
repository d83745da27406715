// The observation interface ENV is allowed to use.
//
// Everything the mapper learns about the platform flows through this
// interface: name lookups, traceroutes, and timed (possibly concurrent)
// transfers — i.e. strictly user-level observations, no SNMP, no raw
// sockets (paper §3.5). `SimProbeEngine` backs it with the simulator;
// tests also implement it with scripted traces.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace envnws::env {

struct HostIdentity {
  std::string fqdn;  ///< empty when reverse DNS fails
  std::string ip;
  std::map<std::string, std::string> properties;
  /// Addresses of the host's OTHER network adapters (a dual-homed
  /// firewall gateway answers with the identity it was asked about and
  /// lists the rest here). Purely schedule-model information: it feeds
  /// the multi-homed-master overlap credit in env/batch_schedule and is
  /// deliberately NOT part of the trace format — a replayed engine
  /// reports none, which only forfeits makespan credit, never changes
  /// the experiment stream or the digest.
  std::vector<std::string> extra_ips;
};

struct TraceHop {
  std::string ip;    ///< "*" when the hop did not respond
  std::string name;  ///< empty when unresolvable
  bool responded = true;
};

struct BandwidthRequest {
  std::string from;
  std::string to;
  /// Source-NIC qualifier for the endpoint-disjointness rule ("" = the
  /// host's only adapter). Two transfers leaving one multi-homed host
  /// through DIFFERENT adapters do not share a network interface, so
  /// tagging them with distinct `via` addresses lets the batch schedule
  /// overlap them. Engines ignore it when measuring (the route is the
  /// platform's business), and it is never serialized into traces —
  /// it exists only for env/batch_schedule's bookkeeping.
  std::string via;
};

/// One experiment of a probe batch: either a single timed transfer
/// (phase 2a/2c style) or one concurrent-transfer experiment whose
/// transfers are timed together (phase 2b style).
struct ProbeExperiment {
  enum class Kind { bandwidth, concurrent };
  Kind kind = Kind::bandwidth;
  /// Exactly one transfer for `bandwidth`, two or more for `concurrent`.
  std::vector<BandwidthRequest> transfers;

  static ProbeExperiment single(std::string from, std::string to) {
    return ProbeExperiment{Kind::bandwidth,
                           {BandwidthRequest{std::move(from), std::move(to), {}}}};
  }
  static ProbeExperiment concurrent(std::vector<BandwidthRequest> transfers) {
    return ProbeExperiment{Kind::concurrent, std::move(transfers)};
  }
};

/// Outcome of one batch experiment; `results` parallels `transfers`.
struct ProbeExperimentOutcome {
  std::vector<Result<double>> results;
  /// Engine busy time this experiment consumed (transfer + settle gap);
  /// the mapper's schedule model list-schedules these durations.
  double duration_s = 0.0;
};

struct ProbeStats {
  std::uint64_t experiments = 0;
  std::int64_t bytes_sent = 0;
  double busy_time_s = 0.0;
};

class ProbeEngine {
 public:
  virtual ~ProbeEngine() = default;

  /// Resolve a user-supplied hostname to the identity visible from the
  /// probing zone, plus inventory properties (ENV phase 4.2.1.2).
  virtual Result<HostIdentity> lookup(const std::string& hostname) = 0;
  /// Hops from `from` towards `target` (target included as last hop).
  virtual Result<std::vector<TraceHop>> traceroute(const std::string& from,
                                                   const std::string& target) = 0;
  /// Achieved bandwidth (bit/s) of one timed transfer, network otherwise idle.
  virtual Result<double> bandwidth(const std::string& from, const std::string& to) = 0;
  /// Achieved bandwidths of transfers started at the same instant.
  virtual std::vector<Result<double>> concurrent_bandwidth(
      const std::vector<BandwidthRequest>& requests) = 0;

  /// Run a batch of experiments the caller asserts to be mutually
  /// independent wherever their endpoint sets are disjoint (the mapper
  /// only builds batches it has that evidence for, e.g. member pairs of
  /// one segment). The CONTRACT every implementation must honour:
  ///
  ///  - Results come back indexed by the batch's canonical order (the
  ///    order of `experiments`), never by completion order.
  ///  - An engine MAY overlap experiments, at most `workers` in flight,
  ///    but ONLY experiments whose endpoint sets are disjoint; anything
  ///    sharing an endpoint must execute in canonical order.
  ///  - An engine without real concurrency does not override this: it
  ///    inherits the default, a plain sequential loop in canonical order
  ///    over the virtuals above, timing each experiment via `stats()`
  ///    diffs (`workers` is ignored). The simulator measures each
  ///    experiment on an otherwise idle network, so batch concurrency is
  ///    modeled by the mapper's schedule (env/batch_schedule.hpp), never
  ///    simulated. The record, replay and fault decorators see one call
  ///    per experiment in canonical order, so a batched mapping records
  ///    the byte-identical probe trace, replays it, and places faults
  ///    ("bw#3") exactly like a sequential one.
  ///
  /// Only an engine that really overlaps experiments (SocketProbeEngine)
  /// or forwards the whole batch to one that might overrides it.
  virtual std::vector<ProbeExperimentOutcome> run_batch(
      const std::vector<ProbeExperiment>& experiments, std::size_t workers);

  [[nodiscard]] virtual ProbeStats stats() const = 0;
};

}  // namespace envnws::env
