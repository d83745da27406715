// NWS name server: the directory every other process registers with
// (paper §2.1: "keeps a directory of the system, allowing each part to
// localize other existing servers").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "nws/series.hpp"
#include "simnet/types.hpp"

namespace envnws::nws {

enum class ProcessKind { nameserver, memory, sensor, forecaster };

struct ProcessInfo {
  ProcessKind kind = ProcessKind::sensor;
  std::string name;
  simnet::NodeId host;
};

class NameServer {
 public:
  explicit NameServer(simnet::NodeId host) : host_(host) {}

  [[nodiscard]] simnet::NodeId host() const { return host_; }

  void register_process(const ProcessInfo& info);
  /// Bind a measurement series to the memory server that stores it.
  void register_series(const SeriesKey& key, const std::string& memory_name);
  [[nodiscard]] Result<std::string> locate_memory(const SeriesKey& key) const;
  [[nodiscard]] const std::vector<ProcessInfo>& processes() const { return processes_; }
  [[nodiscard]] std::uint64_t registration_count() const { return registrations_; }

 private:
  simnet::NodeId host_;
  std::vector<ProcessInfo> processes_;
  std::map<SeriesKey, std::string> series_to_memory_;
  std::uint64_t registrations_ = 0;
};

}  // namespace envnws::nws
