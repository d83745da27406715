// ProbeEngine implementation backed by the simnet simulator.
#pragma once

#include "env/options.hpp"
#include "env/probe_engine.hpp"
#include "simnet/network.hpp"
#include "simnet/probe.hpp"

namespace envnws::env {

class SimProbeEngine final : public ProbeEngine {
 public:
  SimProbeEngine(simnet::Network& net, const MapperOptions& options);

  Result<HostIdentity> lookup(const std::string& hostname) override;
  Result<std::vector<TraceHop>> traceroute(const std::string& from,
                                           const std::string& target) override;
  Result<double> bandwidth(const std::string& from, const std::string& to) override;
  std::vector<Result<double>> concurrent_bandwidth(
      const std::vector<BandwidthRequest>& requests) override;
  [[nodiscard]] ProbeStats stats() const override;

 private:
  /// Resolve by short name, primary fqdn or alias fqdn.
  Result<simnet::NodeId> resolve(const std::string& hostname) const;

  simnet::Network& net_;
  MapperOptions options_;
  simnet::ProbeSession session_;
};

}  // namespace envnws::env
