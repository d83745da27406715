#include "simnet/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "simnet/background.hpp"
#include "simnet/fairshare.hpp"

namespace envnws::simnet {

namespace {
constexpr std::uint32_t kNoResource = std::numeric_limits<std::uint32_t>::max();
}

Network::Network(Topology topology, NetworkOptions options)
    : topo_(std::move(topology)),
      options_(options),
      routes_(topo_),
      jitter_rng_(options.seed) {
  if (const Status status = topo_.validate(); !status.ok()) {
    std::fprintf(stderr, "simnet: invalid topology: %s\n", status.error().to_string().c_str());
    assert(false && "invalid topology");
  }
  build_resources();
  if (topo_.background().active()) background_ = attach_background(*this, topo_.background());
}

Network::~Network() = default;

void Network::build_resources() {
  const LinkModelSpec& model = topo_.link_model();
  link_res_ab_.assign(topo_.link_count(), kNoResource);
  link_res_ba_.assign(topo_.link_count(), kNoResource);
  hub_res_.assign(topo_.node_count(), kNoResource);

  for (const Link& link : topo_.links()) {
    if (link.half_duplex) {
      const auto res = static_cast<std::uint32_t>(resource_capacity_.size());
      resource_capacity_.push_back(model.effective_capacity(std::max(link.bw_ab_bps, link.bw_ba_bps)));
      link_res_ab_[link.id.index()] = res;
      link_res_ba_[link.id.index()] = res;
    } else {
      const auto res_ab = static_cast<std::uint32_t>(resource_capacity_.size());
      resource_capacity_.push_back(model.effective_capacity(link.bw_ab_bps));
      const auto res_ba = static_cast<std::uint32_t>(resource_capacity_.size());
      resource_capacity_.push_back(model.effective_capacity(link.bw_ba_bps));
      link_res_ab_[link.id.index()] = res_ab;
      link_res_ba_[link.id.index()] = res_ba;
    }
  }
  for (const Node& node : topo_.nodes()) {
    if (node.kind == NodeKind::hub) {
      const auto res = static_cast<std::uint32_t>(resource_capacity_.size());
      resource_capacity_.push_back(model.effective_capacity(node.hub_capacity_bps));
      hub_res_[node.id.index()] = res;
    } else if (model.wifi && node.kind == NodeKind::switch_) {
      // Wifi zones: the switch becomes an access point whose attached
      // stations all contend for one shared medium, capped at the
      // fastest attached link. Reusing the hub resource slot makes
      // resources_for_path pick the medium up with no extra plumbing.
      double medium = 0.0;
      for (const LinkId link_id : node.links) {
        const Link& link = topo_.link(link_id);
        medium = std::max(medium, std::max(link.bw_ab_bps, link.bw_ba_bps));
      }
      if (medium > 0.0) {
        const auto res = static_cast<std::uint32_t>(resource_capacity_.size());
        resource_capacity_.push_back(model.effective_capacity(medium));
        hub_res_[node.id.index()] = res;
      }
    }
  }
}

EventHandle Network::schedule_at(SimTime t, EventFn fn) {
  assert(t >= now_);
  return queue_.schedule_at(t, std::move(fn));
}

EventHandle Network::schedule_after(double delay, EventFn fn) {
  return schedule_at(now_ + std::max(0.0, delay), std::move(fn));
}

bool Network::step() {
  SimTime t = 0.0;
  EventFn fn;
  if (!queue_.pop(t, fn)) return false;
  now_ = std::max(now_, t);
  fn();
  return true;
}

void Network::run() {
  while (step()) {
  }
}

void Network::run_until(SimTime t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  now_ = std::max(now_, t);
}

bool Network::can_communicate(NodeId a, NodeId b) const {
  return check_communicate(a, b).ok();
}

Status Network::check_communicate(NodeId a, NodeId b) const {
  const Node& na = topo_.node(a);
  const Node& nb = topo_.node(b);
  if (!na.up) return make_error(ErrorCode::host_down, na.name + " is down");
  if (!nb.up) return make_error(ErrorCode::host_down, nb.name + " is down");
  if (na.is_host() && nb.is_host()) {
    bool share_zone = false;
    for (const auto& zone : na.zones) {
      if (nb.zones.count(zone) > 0) {
        share_zone = true;
        break;
      }
    }
    if (!share_zone) {
      return make_error(ErrorCode::blocked_by_firewall,
                        na.name + " and " + nb.name + " live in disjoint firewall zones");
    }
  }
  return {};
}

void Network::resources_for_path(const Path& path, std::vector<std::uint32_t>& out) const {
  out.clear();
  for (const Hop& hop : path.hops) {
    const Link& link = topo_.link(hop.link);
    out.push_back(hop.from == link.a ? link_res_ab_[hop.link.index()]
                                     : link_res_ba_[hop.link.index()]);
    if (hub_res_[hop.to.index()] != kNoResource) out.push_back(hub_res_[hop.to.index()]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

Result<FlowId> Network::start_flow(NodeId src, NodeId dst, std::int64_t bytes,
                                   FlowCallback on_done, FlowOptions options) {
  if (const Status status = check_communicate(src, dst); !status.ok()) return status.error();
  if (const Status status = routes_.path_into(src, dst, route_); !status.ok()) {
    return status.error();
  }
  resources_for_path(route_, resources_);
  const LinkModelSpec& model = topo_.link_model();
  const double fwd_latency = model.effective_latency(route_.total_latency(topo_));
  double rev_latency = 0.0;
  cross_resources_.clear();
  // The ack travels the reverse path (may differ under asymmetric routes).
  if (options.ack || model.weighted()) {
    const bool reverse_ok = routes_.path_into(dst, src, route_).ok();
    const double reverse_latency =
        reverse_ok ? model.effective_latency(route_.total_latency(topo_)) : fwd_latency;
    if (options.ack) rev_latency = reverse_latency;
    // lv08 cross-traffic: the flow's ack stream loads the reverse path
    // with `cross_traffic_share` of its rate.
    if (model.weighted() && reverse_ok) resources_for_path(route_, cross_resources_);
  }

  FlowId id;
  if (free_flows_.empty()) {
    id = FlowId(static_cast<FlowId::underlying_type>(flows_.size()));
    flows_.emplace_back();
  } else {
    id = free_flows_.back();
    free_flows_.pop_back();
  }
  FlowState& flow = flows_[id.index()];
  std::vector<WeightedUse> uses = std::move(flow.uses);  // a reused slot keeps its capacity
  flow_uses_into(resources_, cross_resources_, model.cross_traffic_share, uses);
  flow = FlowState{};
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.total_bits = static_cast<double>(bytes) * 8.0;
  flow.remaining_bits = flow.total_bits;
  flow.uses = std::move(uses);
  flow.fwd_latency = fwd_latency;
  flow.rev_latency = rev_latency;
  flow.ack = options.ack;
  flow.start_time = now_;
  flow.on_done = std::move(on_done);

  ++stats_.flows_started;
  auto& purpose_stats = stats_.by_purpose[options.purpose];
  ++purpose_stats.flow_count;
  purpose_stats.bytes += bytes;

  schedule_after(fwd_latency, [this, id] { activate_flow(id); });
  return id;
}

void Network::activate_flow(FlowId id) {
  FlowState& flow = flows_[id.index()];
  assert(!flow.active && !flow.done);
  settle_flows();
  flow.active = true;
  flow.last_settle = now_;
  active_order_.push_back(id);
  active_uses_.push_back(std::move(flow.uses));
  recompute_rates();
}

void Network::settle_flows() {
  for (const FlowId id : active_order_) {
    FlowState& flow = flows_[id.index()];
    const double elapsed = now_ - flow.last_settle;
    if (elapsed > 0.0 && std::isfinite(flow.rate_bps)) {
      flow.remaining_bits = std::max(0.0, flow.remaining_bits - flow.rate_bps * elapsed);
    } else if (elapsed > 0.0) {
      flow.remaining_bits = 0.0;
    }
    flow.last_settle = now_;
  }
}

void Network::recompute_rates() {
  solve_max_min_into(resource_capacity_, active_uses_, rates_);

  for (std::size_t i = 0; i < active_order_.size(); ++i) {
    const FlowId id = active_order_[i];
    FlowState& flow = flows_[id.index()];
    flow.rate_bps = rates_[i];
    if (flow.completion_scheduled) {
      queue_.cancel(flow.completion_event);
      flow.completion_scheduled = false;
    }
    double remaining_time = 0.0;
    if (flow.remaining_bits > 0.0) {
      remaining_time = std::isfinite(flow.rate_bps) ? flow.remaining_bits / flow.rate_bps : 0.0;
    }
    flow.completion_event = schedule_after(remaining_time, [this, id] { finish_flow(id); });
    flow.completion_scheduled = true;
  }
}

void Network::finish_flow(FlowId id) {
  FlowState& flow = flows_[id.index()];
  assert(flow.active && !flow.done);
  settle_flows();
  flow.active = false;
  flow.done = true;
  flow.completion_scheduled = false;
  flow.remaining_bits = 0.0;
  const auto slot =
      std::find(active_order_.begin(), active_order_.end(), id) - active_order_.begin();
  active_order_.erase(active_order_.begin() + slot);
  // The terms go back to the flow's slot, whose next flow reuses them.
  flow.uses = std::move(active_uses_[static_cast<std::size_t>(slot)]);
  active_uses_.erase(active_uses_.begin() + slot);
  recompute_rates();
  ++stats_.flows_completed;

  const double callback_delay = flow.ack ? flow.rev_latency : 0.0;
  schedule_after(callback_delay, [this, id] {
    FlowState& finished = flows_[id.index()];
    FlowResult result;
    result.id = finished.id;
    result.src = finished.src;
    result.dst = finished.dst;
    result.bytes = static_cast<std::int64_t>(finished.total_bits / 8.0);
    result.start_time = finished.start_time;
    result.end_time = now_;
    // Move the callback out so captured state is released afterwards,
    // and free the slot first: a flow the callback starts may reuse it.
    FlowCallback cb = std::move(finished.on_done);
    finished.on_done = nullptr;
    free_flows_.push_back(id);
    if (cb) cb(result);
  });
}

Status Network::send_message(NodeId src, NodeId dst, std::int64_t bytes,
                             std::function<void()> on_delivered, const std::string& purpose) {
  if (const Status status = check_communicate(src, dst); !status.ok()) return status.error();
  if (const Status status = routes_.path_into(src, dst, route_); !status.ok()) return status;
  const double delay = delay_over(route_, bytes);
  ++stats_.messages_sent;
  auto& purpose_stats = stats_.by_purpose[purpose];
  ++purpose_stats.flow_count;
  purpose_stats.bytes += bytes;
  schedule_after(delay, [this, dst, cb = std::move(on_delivered)] {
    // A message addressed to a host that died in flight is dropped; the
    // sender's own timeout logic is responsible for noticing.
    if (!topo_.node(dst).up) return;
    if (cb) cb();
  });
  return {};
}

double Network::delay_over(const Path& path, std::int64_t bytes) const {
  const double latency = path.total_latency(topo_);
  const double bottleneck = path.bottleneck_bandwidth(topo_);
  const double transmission =
      bottleneck > 0.0 && std::isfinite(bottleneck)
          ? static_cast<double>(bytes) * 8.0 / bottleneck
          : 0.0;
  return latency + transmission;
}

Result<std::vector<TracerouteHop>> Network::traceroute(NodeId src, NodeId dst) const {
  const Node& source = topo_.node(src);
  const Node& target = topo_.node(dst);
  if (!source.up) return make_error(ErrorCode::host_down, source.name + " is down");
  if (target.is_host()) {
    if (const Status status = check_communicate(src, dst); !status.ok()) return status.error();
  }
  const auto path = routes_.path(src, dst);
  if (!path.ok()) return path.error();

  std::vector<TracerouteHop> hops;
  for (const Hop& hop : path.value().hops) {
    const Node& node = topo_.node(hop.to);
    if (!node.ip_visible()) continue;  // hubs and switches are L2-invisible
    TracerouteHop entry;
    entry.node = node.id;
    if (node.kind == NodeKind::router && !node.router.responds_to_traceroute) {
      entry.responded = false;
      entry.reported_ip = "*";
      hops.push_back(entry);
      continue;
    }
    Ipv4 reported = node.ip;
    std::string reported_fqdn = node.fqdn;
    if (node.kind == NodeKind::router && node.router.reported_address.has_value()) {
      reported = *node.router.reported_address;
    }
    // A multi-homed host (firewall gateway) is seen through the interface
    // facing the prober: report the identity whose zone the source shares.
    if (node.is_host() && source.is_host() && !node.aliases.empty()) {
      const bool primary_visible = [&] {
        // The primary identity is usable when the source shares a zone
        // that is not claimed by any alias (alias zones are secondary).
        std::set<std::string> alias_zones;
        for (const auto& alias : node.aliases) alias_zones.insert(alias.zone);
        for (const auto& zone : source.zones) {
          if (node.zones.count(zone) > 0 && alias_zones.count(zone) == 0) return true;
        }
        return false;
      }();
      if (!primary_visible) {
        for (const auto& alias : node.aliases) {
          if (source.zones.count(alias.zone) > 0) {
            reported = alias.ip;
            reported_fqdn = alias.fqdn;
            break;
          }
        }
      }
    }
    entry.reported_ip = reported.to_string();
    const bool resolvable =
        node.kind == NodeKind::router ? node.router.has_hostname : !reported_fqdn.empty();
    entry.reported_name = resolvable ? reported_fqdn : "";
    hops.push_back(entry);
  }
  return hops;
}

Result<double> Network::ground_truth_bandwidth(NodeId src, NodeId dst) const {
  const auto path = routes_.path(src, dst);
  if (!path.ok()) return path.error();
  // A single flow's rate is the path's effective bottleneck: the wifi
  // medium (= fastest attached link) never undercuts a lone flow and
  // cross-traffic back-flows are non-binding without contention, so the
  // link-model capacity correction is the whole story.
  return topo_.link_model().effective_capacity(path.value().bottleneck_bandwidth(topo_));
}

Result<double> Network::ground_truth_latency(NodeId src, NodeId dst) const {
  const auto path = routes_.path(src, dst);
  if (!path.ok()) return path.error();
  return path.value().total_latency(topo_);
}

Result<std::vector<std::uint32_t>> Network::path_resources(NodeId src, NodeId dst) const {
  const auto path = routes_.path(src, dst);
  if (!path.ok()) return path.error();
  std::vector<std::uint32_t> resources;
  resources_for_path(path.value(), resources);
  return resources;
}

Result<std::vector<double>> Network::predicted_rates(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) const {
  const LinkModelSpec& model = topo_.link_model();
  std::vector<std::vector<WeightedUse>> flows;
  flows.reserve(pairs.size());
  for (const auto& [src, dst] : pairs) {
    const auto forward = path_resources(src, dst);
    if (!forward.ok()) return forward.error();
    std::vector<std::uint32_t> reverse;
    if (model.weighted()) {
      auto rev = path_resources(dst, src);
      if (!rev.ok()) return rev.error();
      reverse = std::move(rev.value());
    }
    flows.push_back(flow_uses(forward.value(), reverse, model.cross_traffic_share));
  }
  return solve_max_min(resource_capacity_, flows);
}

double Network::cpu_load(NodeId host, SimTime t) const {
  return topo_.node(host).cpu_load.at(t);
}

double Network::cpu_availability(NodeId host, SimTime t) const {
  // NWS reports the CPU share a newly started process would obtain; with
  // `load` runnable processes already competing, that is 1 / (1 + load).
  return 1.0 / (1.0 + cpu_load(host, t));
}

double Network::memory_free_mb(NodeId host, SimTime t) const {
  const Node& node = topo_.node(host);
  const double used_fraction = std::clamp(node.memory_used_fraction.at(t), 0.0, 1.0);
  return node.memory_total_mb * (1.0 - used_fraction);
}

double Network::disk_free_mb(NodeId host, SimTime t) const {
  const Node& node = topo_.node(host);
  const double used_fraction = std::clamp(node.disk_used_fraction.at(t), 0.0, 1.0);
  return node.disk_total_mb * (1.0 - used_fraction);
}

void Network::set_host_up(NodeId host, bool is_up) { topo_.node_mut(host).up = is_up; }

double Network::measurement_jitter() {
  if (options_.measurement_jitter_sigma <= 0.0) return 1.0;
  const double factor = 1.0 + options_.measurement_jitter_sigma * jitter_rng_.normal();
  return std::max(0.05, factor);
}

double Network::timed_bandwidth(const FlowResult& result) {
  const double duration = result.duration() * measurement_jitter();
  return duration > 0.0 ? static_cast<double>(result.bytes) * 8.0 / duration : 0.0;
}

}  // namespace envnws::simnet
