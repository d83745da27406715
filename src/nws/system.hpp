// NwsSystem: a complete Network Weather Service instance bound to a
// simulated platform — one name server, one forecaster, memory servers,
// host sensors and measurement cliques (paper §2.1's four server kinds).
//
// Queries follow the paper's Fig.-1 message flow: the client asks the
// forecaster (step 1), the forecaster locates the memory via the name
// server (step 2), fetches the measurement history (step 3), applies the
// statistical battery and answers (step 4). Every hop is a simulated
// message, so query latency is as real as the measurements.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "nws/clique.hpp"
#include "nws/forecast.hpp"
#include "nws/memory.hpp"
#include "nws/nameserver.hpp"
#include "nws/sensors.hpp"
#include "nws/series.hpp"
#include "simnet/network.hpp"

namespace envnws::nws {

struct SystemConfig {
  std::string nameserver_host;
  std::string forecaster_host;
  /// Hosts running memory servers; cliques are assigned round-robin.
  std::vector<std::string> memory_hosts;
  double host_sensor_period_s = 10.0;
  std::size_t series_capacity = 512;
  /// Extension (paper conclusion): guard experiments with host-level
  /// locks shared across all cliques.
  bool enable_host_locks = false;
};

struct QueryReply {
  Forecast forecast;
  double last_measurement = 0.0;
  double query_latency_s = 0.0;  ///< client-observed round trip
};

class NwsSystem {
 public:
  NwsSystem(simnet::Network& net, SystemConfig config);
  ~NwsSystem();
  NwsSystem(const NwsSystem&) = delete;
  NwsSystem& operator=(const NwsSystem&) = delete;

  /// Create a measurement clique (before or after start()).
  Clique& add_clique(const CliqueSpec& spec);
  /// Start CPU/memory/disk monitoring on a host; not_found for a name
  /// the topology does not know.
  Status add_host_sensor(const std::string& host_name);
  /// Anti-pattern probe for the collision experiments; not_found for an
  /// unknown endpoint.
  Result<UncoordinatedProbe*> add_uncoordinated_probe(const std::string& src,
                                                      const std::string& dst, double period_s);

  /// Register everything with the name server and start all activity.
  void start();
  void stop();

  /// Issue a forecast query from `client_host` and run the simulation
  /// until the reply arrives; not_found for an unknown client host.
  Result<QueryReply> query(const std::string& client_host, const SeriesKey& key);

  // --- introspection (tests, benches, validator) ---
  [[nodiscard]] const NameServer& nameserver() const { return *nameserver_; }
  [[nodiscard]] const HostLockService* host_locks() const { return locks_.get(); }
  [[nodiscard]] const std::vector<std::unique_ptr<Clique>>& cliques() const { return cliques_; }
  [[nodiscard]] const TimeSeries* find_series(const SeriesKey& key) const;
  [[nodiscard]] simnet::Network& network() { return net_; }

 private:
  /// The topology node named `name`. The constructor takes its
  /// configured hosts' ids unchecked: the deployment manager has checked
  /// those names before building the system.
  [[nodiscard]] Result<simnet::NodeId> node(const std::string& name) const;
  /// Memory server for a new clique: round-robin over the configured
  /// hosts, restricted to those every member can actually reach (a
  /// firewalled zone must store to its own site's memory).
  MemoryServer& memory_for_clique(const std::vector<simnet::NodeId>& members);
  /// Forecaster-side per-series state, replayed from memory on demand.
  AdaptiveForecaster& forecaster_state(const SeriesKey& key, const TimeSeries& series);

  simnet::Network& net_;
  SystemConfig config_;
  std::unique_ptr<NameServer> nameserver_;
  std::unique_ptr<HostLockService> locks_;
  simnet::NodeId forecaster_host_;
  std::vector<std::unique_ptr<MemoryServer>> memories_;
  std::vector<std::unique_ptr<Clique>> cliques_;
  std::vector<std::unique_ptr<HostSensor>> sensors_;
  std::vector<std::unique_ptr<UncoordinatedProbe>> probes_;
  /// Per series: its forecaster and TimeSeries::appended() when it last
  /// caught up.
  std::map<SeriesKey, std::pair<AdaptiveForecaster, std::uint64_t>> forecaster_cache_;
  std::size_t next_memory_ = 0;
  bool started_ = false;
};

}  // namespace envnws::nws
