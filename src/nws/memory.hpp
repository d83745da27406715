// NWS memory server: bounded storage for measurement series, with the
// text dump/restore the real system's on-disk persistence provided
// (paper §2.1: memories "store the results on disk for further use").
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/result.hpp"
#include "nws/series.hpp"
#include "simnet/types.hpp"

namespace envnws::nws {

/// Parse the dump grammar of MemoryServer::dump(), handing every
/// measurement to `sink` in file order. Blank and `#` lines are skipped;
/// a `series <resource> <src> <dst>` header (dst `-` for host series)
/// names the series the following `<time> <value>` lines belong to.
/// Anything else — a short header, an unknown resource, a point before
/// any header, or a point line that is not exactly two finite numbers —
/// is a `protocol` error; points before the bad line are already sunk.
Status parse_dump(const std::string& text,
                  const std::function<void(const SeriesKey&, double time, double value)>& sink);

class MemoryServer {
 public:
  MemoryServer(std::string name, simnet::NodeId host, std::size_t series_capacity = 512)
      : name_(std::move(name)), host_(host), series_capacity_(series_capacity) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] simnet::NodeId host() const { return host_; }

  void store(const SeriesKey& key, double time, double value);
  [[nodiscard]] const TimeSeries* find(const SeriesKey& key) const;
  [[nodiscard]] const std::map<SeriesKey, TimeSeries>& series() const { return series_; }

  /// Serialize every series to the line-oriented on-disk format:
  ///   series <resource> <src> <dst>\n followed by "<time> <value>" lines,
  /// both with 17 significant digits (common/codec), so restore() reads
  /// back every double bit-identically.
  [[nodiscard]] std::string dump() const;
  /// Restore a dump (appends to existing series; grammar and errors as
  /// parse_dump).
  Status restore(const std::string& text);

 private:
  std::string name_;
  simnet::NodeId host_;
  std::size_t series_capacity_;
  std::map<SeriesKey, TimeSeries> series_;
};

}  // namespace envnws::nws
