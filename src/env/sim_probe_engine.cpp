#include "env/sim_probe_engine.hpp"

namespace envnws::env {

using simnet::NodeId;

SimProbeEngine::SimProbeEngine(simnet::Network& net, const MapperOptions& options)
    : net_(net), options_(options) {}

Result<NodeId> SimProbeEngine::resolve(const std::string& hostname) const {
  return net_.topology().find_by_name_or_fqdn(hostname);
}

Result<HostIdentity> SimProbeEngine::lookup(const std::string& hostname) {
  const auto node_id = resolve(hostname);
  if (!node_id.ok()) return node_id.error();
  const simnet::Node& node = net_.topology().node(node_id.value());

  HostIdentity identity;
  identity.properties = node.properties;
  // Answer with the identity that was asked about: querying a gateway by
  // its private alias must yield the private fqdn/ip, like the real DNS
  // view from inside the private zone would.
  identity.fqdn = node.fqdn;
  identity.ip = node.ip.is_zero() ? "" : node.ip.to_string();
  for (const auto& alias : node.aliases) {
    if (alias.fqdn == hostname) {
      identity.fqdn = alias.fqdn;
      identity.ip = alias.ip.to_string();
      break;
    }
  }
  // The other adapters of a multi-homed host (primary first, then the
  // aliases, minus whichever identity answered) — the schedule model's
  // multi-homing signal, see HostIdentity::extra_ips.
  if (!node.aliases.empty()) {
    const std::string primary = node.ip.is_zero() ? "" : node.ip.to_string();
    if (!primary.empty() && primary != identity.ip) identity.extra_ips.push_back(primary);
    for (const auto& alias : node.aliases) {
      const std::string addr = alias.ip.to_string();
      if (addr != identity.ip) identity.extra_ips.push_back(addr);
    }
  }
  return identity;
}

Result<std::vector<TraceHop>> SimProbeEngine::traceroute(const std::string& from,
                                                         const std::string& target) {
  const auto src = resolve(from);
  if (!src.ok()) return src.error();
  const auto dst = resolve(target);
  if (!dst.ok()) return dst.error();
  const auto hops = net_.traceroute(src.value(), dst.value());
  if (!hops.ok()) return hops.error();
  std::vector<TraceHop> out;
  out.reserve(hops.value().size());
  for (const auto& hop : hops.value()) {
    out.push_back(TraceHop{hop.reported_ip, hop.reported_name, hop.responded});
  }
  return out;
}

void SimProbeEngine::start_transfer(NodeId src, NodeId dst, Result<double>& slot) {
  // Every started flow's callback is a queued event, so finish_experiment
  // runs them all before `slot` goes out of scope.
  const auto flow = net_.start_flow(
      src, dst, options_.probe_bytes,
      [this, &slot](const simnet::FlowResult& result) {
        slot = net_.timed_bandwidth(result);
        --pending_;
      },
      simnet::FlowOptions{true, "env-probe"});
  if (!flow.ok()) {
    slot = flow.error();
    return;
  }
  ++pending_;
  stats_.bytes_sent += options_.probe_bytes;
}

void SimProbeEngine::finish_experiment(double started_at) {
  while (pending_ > 0 && net_.step()) {
  }
  ++stats_.experiments;
  net_.run_until(net_.now() + options_.stabilization_gap_s);
  stats_.busy_time_s += net_.now() - started_at;
}

Result<double> SimProbeEngine::bandwidth(const std::string& from, const std::string& to) {
  const auto src = resolve(from);
  if (!src.ok()) return src.error();
  const auto dst = resolve(to);
  if (!dst.ok()) return dst.error();
  const double started_at = net_.now();
  Result<double> measured = 0.0;
  start_transfer(src.value(), dst.value(), measured);
  finish_experiment(started_at);
  return measured;
}

std::vector<Result<double>> SimProbeEngine::concurrent_bandwidth(
    const std::vector<BandwidthRequest>& requests) {
  const double started_at = net_.now();
  std::vector<Result<double>> results;
  // Reserved up front: the flows write into these slots by reference.
  results.reserve(requests.size());
  for (const auto& request : requests) {
    const auto src = resolve(request.from);
    const auto dst = src.ok() ? resolve(request.to) : src;
    if (!src.ok() || !dst.ok()) {
      results.push_back((!src.ok() ? src : dst).error());
      continue;
    }
    results.push_back(0.0);
    start_transfer(src.value(), dst.value(), results.back());
  }
  finish_experiment(started_at);
  return results;
}

}  // namespace envnws::env
