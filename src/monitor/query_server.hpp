// The monitor's query front-end: SNAPSHOT / QUERY / SERIES over the
// probe_wire framed protocol (frame grammar in env/probe_wire.hpp,
// lifecycle in docs/MONITORD.md).
//
// The server itself is env::wire::FrameServer: one thread per
// connection, finished connections reaped by the acceptor, and requests
// a client pipelines answered in request order with one write per
// buffered batch (a client that waits for each reply gets it at once).
// This class is its request handler. The handlers are where the RCU
// model pays off: SNAPSHOT and QUERY answer entirely from the currently
// published MonitorSnapshot — one shared_ptr copy under the board's
// pointer lock, then no lock at all, however many clients hammer the
// daemon while the measurement loop runs; SNAPSHOT sends the snapshot's
// digest, which the first request to ask for it computes (once per
// snapshot).
// Only SERIES (raw history, not part of the snapshot) reads the series
// store, under its mutex.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "env/probe_wire.hpp"
#include "monitor/snapshot.hpp"
#include "monitor/store.hpp"
#include "nws/series.hpp"

namespace envnws::monitor {

class QueryServer {
 public:
  /// Serves `board` (SNAPSHOT/QUERY) and `store` (SERIES); both must
  /// outlive the server. `max_series_points` caps one SERIES reply so a
  /// full-history request cannot overflow a control frame.
  QueryServer(const SnapshotBoard& board, const SeriesStore& store,
              std::size_t max_series_points = 256);

  /// Bind and start serving; `port == 0` picks an ephemeral port.
  Status start(const std::string& address = "127.0.0.1", std::uint16_t port = 0) {
    return server_.start(address, port);
  }
  void stop() { server_.stop(); }
  [[nodiscard]] bool running() const { return server_.running(); }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] std::uint64_t requests_served() const { return server_.requests_served(); }

 private:
  /// One request -> one reply payload (never empty).
  [[nodiscard]] std::string handle(const env::wire::WireMessage& request) const;
  [[nodiscard]] std::string handle_snapshot() const;
  [[nodiscard]] std::string handle_query(const env::wire::WireMessage& request) const;
  [[nodiscard]] std::string handle_series(const env::wire::WireMessage& request) const;

  const SnapshotBoard& board_;
  const SeriesStore& store_;
  std::size_t max_series_points_;
  /// Declared last, so its connection threads are joined before the
  /// members the handler reads are destroyed.
  env::wire::FrameServer server_;
};

/// One client connection to a QueryServer (tests, the monitord example,
/// operator tooling). Not thread-safe; give each thread its own client.
class QueryClient {
 public:
  static Result<QueryClient> connect(const std::string& address, std::uint16_t port,
                                     double timeout_s = 5.0);

  /// Raw round trip (reply may be any type, ERR already converted).
  Result<env::wire::WireMessage> request(const env::wire::WireMessage& message,
                                         std::string_view expected_type);

  struct SnapshotSummary {
    std::uint64_t version = 0;
    std::uint64_t cycles = 0;
    double time_s = 0.0;
    std::uint64_t pairs = 0;
    std::uint64_t measurements = 0;
    std::uint64_t failures = 0;
    std::uint64_t remaps = 0;
    std::string drifting;  ///< comma-joined drifting segments
    std::string digest;
  };
  Result<SnapshotSummary> snapshot();

  struct PairAnswer {
    double latest = 0.0;
    double latest_time = 0.0;
    nws::Forecast forecast;
    bool drifting = false;
  };
  Result<PairAnswer> query(const nws::SeriesKey& key);

  Result<std::vector<nws::Measurement>> series(const nws::SeriesKey& key, std::size_t max = 0);

 private:
  QueryClient(env::wire::TcpSocket socket, double timeout_s)
      : socket_(std::move(socket)), timeout_s_(timeout_s) {}

  env::wire::TcpSocket socket_;
  env::wire::FrameBuffer buffer_;
  double timeout_s_;
};

}  // namespace envnws::monitor
