// ProbeEngine implementation backed by the simnet simulator.
#pragma once

#include "env/options.hpp"
#include "env/probe_engine.hpp"
#include "simnet/network.hpp"

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
  [[nodiscard]] ProbeStats stats() const override { return stats_; }

 private:
  /// Resolve by short name, primary fqdn or alias fqdn.
  Result<simnet::NodeId> resolve(const std::string& hostname) const;
  /// Start one timed "env-probe" flow whose bandwidth lands in `slot`
  /// on completion; `slot` takes the error when the flow cannot start.
  void start_transfer(simnet::NodeId src, simnet::NodeId dst, Result<double>& slot);
  /// Step until every started flow has finished, run the stabilization
  /// gap and count one experiment (busy time includes the gap).
  void finish_experiment(double started_at);

  simnet::Network& net_;
  MapperOptions options_;
  ProbeStats stats_;
  /// Flows of the current experiment still running. A member, so a
  /// flow's callback captures only `this` and its slot: 16 bytes fit
  /// std::function's inline buffer, and starting a flow allocates no
  /// callback.
  std::size_t pending_ = 0;
};

}  // namespace envnws::env
