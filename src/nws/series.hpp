// Measurement time series and series naming.
//
// Every NWS measurement stream — one per (resource, source, destination)
// triple — is a bounded, append-only sequence of timestamped values held
// by a memory server (paper §2.1: "Memory servers store the results on
// disk for further use"; this reproduction keeps them in memory).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace envnws::nws {

enum class ResourceKind {
  bandwidth,     ///< large-message throughput, bit/s (64 KiB probes)
  latency,       ///< small-message round-trip time, seconds
  connect_time,  ///< TCP connect-disconnect time, seconds
  cpu,           ///< fraction of CPU a fresh process would get
  memory,        ///< free memory, MB
  disk,          ///< free disk, MB
};

[[nodiscard]] const char* to_string(ResourceKind kind);
/// Inverse of to_string(); `protocol` error on unknown resource names
/// (shared by the memory-dump parser and the monitor wire protocol).
[[nodiscard]] Result<ResourceKind> resource_from_string(const std::string& text);

/// Identity of one measurement stream. Host resources leave `dst` empty.
struct SeriesKey {
  ResourceKind resource = ResourceKind::bandwidth;
  std::string src;
  std::string dst;

  [[nodiscard]] std::string to_string() const;
  /// Append to_string() to `out` (no temporary string).
  void append_to(std::string& out) const;
  friend bool operator==(const SeriesKey& a, const SeriesKey& b) {
    return a.resource == b.resource && a.src == b.src && a.dst == b.dst;
  }
  friend bool operator<(const SeriesKey& a, const SeriesKey& b) {
    if (a.resource != b.resource) return a.resource < b.resource;
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  }
};

struct Measurement {
  double time = 0.0;
  double value = 0.0;
};

/// Bounded measurement history (drop-oldest).
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity = 512) : capacity_(capacity) {}

  void add(double time, double value);
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  /// Values ever appended, including those the ring has since dropped.
  [[nodiscard]] std::uint64_t appended() const { return appended_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] const Measurement& at(std::size_t i) const { return data_[i]; }
  [[nodiscard]] const Measurement& latest() const { return data_.back(); }
  [[nodiscard]] std::vector<double> values() const;
  /// Mean inter-measurement spacing (the achieved measurement period).
  [[nodiscard]] double mean_period() const;

 private:
  std::size_t capacity_;
  std::deque<Measurement> data_;
  std::uint64_t appended_ = 0;
};

}  // namespace envnws::nws
