#include "env/sim_probe_engine.hpp"

namespace envnws::env {

using simnet::NodeId;

SimProbeEngine::SimProbeEngine(simnet::Network& net, const MapperOptions& options)
    : net_(net),
      options_(options),
      session_(net, simnet::ProbeOptions{"env-probe", options.stabilization_gap_s}) {}

Result<NodeId> SimProbeEngine::resolve(const std::string& hostname) const {
  if (auto by_name = net_.topology().find_by_name(hostname); by_name.ok()) {
    return by_name.value();
  }
  return net_.topology().find_host_by_fqdn(hostname);
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

Result<double> SimProbeEngine::bandwidth(const std::string& from, const std::string& to) {
  const auto src = resolve(from);
  if (!src.ok()) return src.error();
  const auto dst = resolve(to);
  if (!dst.ok()) return dst.error();
  const auto outcome = session_.single(src.value(), dst.value(), options_.probe_bytes);
  if (!outcome.ok) return outcome.error;
  return outcome.bandwidth_bps;
}

std::vector<Result<double>> SimProbeEngine::concurrent_bandwidth(
    const std::vector<BandwidthRequest>& requests) {
  std::vector<Result<double>> results;
  results.reserve(requests.size());
  std::vector<simnet::TransferSpec> specs;
  std::vector<std::size_t> spec_to_result;
  for (const auto& request : requests) {
    const auto src = resolve(request.from);
    const auto dst = src.ok() ? resolve(request.to) : src;
    if (!src.ok() || !dst.ok()) {
      results.push_back((!src.ok() ? src : dst).error());
      continue;
    }
    specs.push_back(simnet::TransferSpec{src.value(), dst.value(), options_.probe_bytes});
    spec_to_result.push_back(results.size());
    results.push_back(make_error(ErrorCode::internal, "pending"));
  }
  const auto outcomes = session_.concurrent(specs);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    results[spec_to_result[i]] =
        outcomes[i].ok ? Result<double>(outcomes[i].bandwidth_bps)
                       : Result<double>(outcomes[i].error);
  }
  return results;
}

ProbeStats SimProbeEngine::stats() const {
  return ProbeStats{session_.experiment_count(), session_.bytes_sent(),
                    session_.busy_time_s()};
}

}  // namespace envnws::env
