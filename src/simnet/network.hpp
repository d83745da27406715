// The discrete-event network engine.
//
// Combines the static Topology with routing, a deterministic event queue
// and a max-min fair fluid traffic model. Everything the rest of the
// repository does — ENV probes, NWS sensor measurements, token passing,
// background cross-traffic — happens through this class, in simulated
// time, so concurrent activities contend for bandwidth exactly as they
// would on the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/fairshare.hpp"
#include "simnet/routing.hpp"
#include "simnet/topology.hpp"
#include "simnet/types.hpp"

namespace envnws::simnet {

class CrossTraffic;

struct NetworkOptions {
  /// Multiplicative jitter applied by `measurement_jitter()`; probes use
  /// it to model measurement noise without disturbing the fluid model.
  double measurement_jitter_sigma = 0.0;
  std::uint64_t seed = 42;
};

struct FlowResult {
  FlowId id;
  NodeId src;
  NodeId dst;
  std::int64_t bytes = 0;
  SimTime start_time = 0.0;
  SimTime end_time = 0.0;
  /// end - start, including forward latency and (if acked) the ack's
  /// return latency — i.e. what a user-level timed transfer observes.
  [[nodiscard]] double duration() const { return end_time - start_time; }
};

using FlowCallback = std::function<void(const FlowResult&)>;

struct FlowOptions {
  /// Completion is reported only after an acknowledgment crosses back
  /// (how both ENV and the NWS bandwidth sensor time their transfers).
  bool ack = true;
  /// Accounting tag: "env-probe", "nws-bandwidth", "app", ... Counted in
  /// NetStats::by_purpose when the flow starts; the flow keeps no copy.
  std::string purpose = "app";
};

struct TracerouteHop {
  NodeId node;
  /// Address in the TTL-expired reply; "*" when the router keeps silent.
  std::string reported_ip;
  /// Reverse-DNS name; empty when resolution fails.
  std::string reported_name;
  bool responded = true;
};

struct PurposeStats {
  std::uint64_t flow_count = 0;
  std::int64_t bytes = 0;
};

struct NetStats {
  std::map<std::string, PurposeStats> by_purpose;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t messages_sent = 0;
};

class Network {
 public:
  explicit Network(Topology topology, NetworkOptions options = {});
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const Topology& topology() const { return topo_; }
  /// The topology's link model (ideal unless the scenario was decorated).
  [[nodiscard]] const LinkModelSpec& link_model() const { return topo_.link_model(); }
  [[nodiscard]] RouteTable& routes() { return routes_; }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] const NetStats& stats() const { return stats_; }
  /// Construction options, so a replica can be built measurement-faithful
  /// (api::Session clones the platform per zone for concurrent mapping).
  [[nodiscard]] const NetworkOptions& options() const { return options_; }

  // --- event scheduling ---
  EventHandle schedule_at(SimTime t, EventFn fn);
  EventHandle schedule_after(double delay, EventFn fn);

  // --- simulation control ---
  /// Run a single event. False when the queue is drained.
  bool step();
  /// Run until the queue drains.
  void run();
  /// Run all events with time <= t, then set the clock to t.
  void run_until(SimTime t);

  // --- bulk data (fluid flows) ---
  /// Start a transfer; `on_done` runs once the flow (and its ack, if
  /// any) has arrived. The returned id is valid only until then: the
  /// flow's slot is freed just before `on_done` runs, and the next
  /// started flow — possibly one `on_done` starts — reuses it.
  Result<FlowId> start_flow(NodeId src, NodeId dst, std::int64_t bytes, FlowCallback on_done,
                            FlowOptions options = {});

  // --- small control messages (latency-bound, no contention) ---
  Status send_message(NodeId src, NodeId dst, std::int64_t bytes,
                      std::function<void()> on_delivered, const std::string& purpose = "control");

  // --- reachability / diagnostics ---
  [[nodiscard]] bool can_communicate(NodeId a, NodeId b) const;
  [[nodiscard]] Status check_communicate(NodeId a, NodeId b) const;
  Result<std::vector<TracerouteHop>> traceroute(NodeId src, NodeId dst) const;

  // --- ground truth (tests & validator only; tools must not call) ---
  [[nodiscard]] Result<double> ground_truth_bandwidth(NodeId src, NodeId dst) const;
  [[nodiscard]] Result<double> ground_truth_latency(NodeId src, NodeId dst) const;
  /// Fluid-model resource indices the (src -> dst) route consumes; two
  /// experiments collide iff their resource sets intersect.
  [[nodiscard]] Result<std::vector<std::uint32_t>> path_resources(NodeId src, NodeId dst) const;
  /// Capacities of all fluid-model resources (indexable by the values
  /// returned from path_resources).
  [[nodiscard]] const std::vector<double>& resource_capacities() const {
    return resource_capacity_;
  }
  /// Steady-state rate the model predicts for each of `pairs` when all
  /// of them transfer simultaneously (no latency, no event queue): the
  /// fair-share solve over effective capacities, weighted when the
  /// model injects cross-traffic. This is the calibration surface — the
  /// number a paced bulk transfer's measured bandwidth should match.
  [[nodiscard]] Result<std::vector<double>> predicted_rates(
      const std::vector<std::pair<NodeId, NodeId>>& pairs) const;

  // --- host state (sensors read these) ---
  [[nodiscard]] double cpu_load(NodeId host, SimTime t) const;
  /// Fraction of CPU a fresh process would obtain (NWS "availability").
  [[nodiscard]] double cpu_availability(NodeId host, SimTime t) const;
  [[nodiscard]] double memory_free_mb(NodeId host, SimTime t) const;
  [[nodiscard]] double disk_free_mb(NodeId host, SimTime t) const;

  // --- failure injection ---
  void set_host_up(NodeId host, bool is_up);
  [[nodiscard]] bool host_up(NodeId host) const { return topo_.node(host).up; }

  /// Multiplicative measurement noise factor (1.0 when jitter disabled).
  double measurement_jitter();
  /// What a user-level timed transfer reports for a finished flow: its
  /// duration times one measurement_jitter() draw, as bits per second
  /// (0 for a zero duration). ENV's simulated probes and the NWS
  /// bandwidth sensors all measure through this one rule.
  double timed_bandwidth(const FlowResult& result);

 private:
  struct FlowState {
    FlowId id;
    NodeId src;
    NodeId dst;
    double total_bits = 0.0;
    double remaining_bits = 0.0;
    /// Fair-share terms: weight 1.0 on the forward path, plus the lv08
    /// ack cross-traffic's `cross_traffic_share` on the reverse path
    /// when the model is weighted. Moved to `active_uses_` on activation
    /// and back on completion, so the slot's next flow reuses the storage.
    std::vector<WeightedUse> uses;
    double fwd_latency = 0.0;
    double rev_latency = 0.0;
    bool ack = true;
    double rate_bps = 0.0;
    SimTime last_settle = 0.0;
    SimTime start_time = 0.0;
    bool active = false;
    bool done = false;
    EventHandle completion_event = 0;
    bool completion_scheduled = false;
    FlowCallback on_done;
  };

  void build_resources();
  /// One-way delay of `bytes` over `path`: its latency plus the
  /// transmission time at its bottleneck.
  [[nodiscard]] double delay_over(const Path& path, std::int64_t bytes) const;
  /// The sorted, duplicate-free resources `path` consumes, written over `out`.
  void resources_for_path(const Path& path, std::vector<std::uint32_t>& out) const;
  void activate_flow(FlowId id);
  void finish_flow(FlowId id);
  void settle_flows();
  void recompute_rates();

  Topology topo_;
  NetworkOptions options_;
  RouteTable routes_;
  EventQueue queue_;
  SimTime now_ = 0.0;
  Rng jitter_rng_;
  NetStats stats_;

  std::vector<double> resource_capacity_;
  // Per link: resource index for each direction (equal when half-duplex).
  std::vector<std::uint32_t> link_res_ab_;
  std::vector<std::uint32_t> link_res_ba_;
  // Per node: hub collision-domain resource (UINT32_MAX when not a hub).
  std::vector<std::uint32_t> hub_res_;

  /// Flow slots, indexed by FlowId; a slot is freed (pushed on
  /// free_flows_) when its flow's completion callback runs.
  std::vector<FlowState> flows_;
  std::vector<FlowId> free_flows_;
  std::vector<FlowId> active_order_;  ///< active flows, insertion order
  /// Fair-share terms of active_order_[i], the solver's input as is.
  std::vector<std::vector<WeightedUse>> active_uses_;
  // start_flow/send_message/recompute_rates scratch, reused so the
  // per-flow and per-message paths allocate nothing once they have
  // grown: a route, its resources, the reverse path's resources and the
  // solver's rates.
  Path route_;
  std::vector<std::uint32_t> resources_;
  std::vector<std::uint32_t> cross_resources_;
  std::vector<double> rates_;
  /// Generators for the topology's background spec (owned so replicas
  /// replay identical load; empty without a `bg:` decorator).
  std::vector<std::unique_ptr<CrossTraffic>> background_;
};

}  // namespace envnws::simnet
