#include "monitor/query_server.hpp"

#include <algorithm>

#include "common/codec.hpp"
#include "common/strings.hpp"

namespace envnws::monitor {

namespace wire = env::wire;

namespace {

/// Bound on every receive and send; an idle client is dropped after it.
constexpr double kIoTimeoutS = 10.0;

/// Parse the (resource, src, dst) triple shared by QUERY and SERIES.
Result<nws::SeriesKey> key_from(const wire::WireMessage& request) {
  const std::string resource_text = request.get("resource", "bandwidth");
  auto resource = nws::resource_from_string(resource_text);
  if (!resource.ok()) return resource.error();
  const std::string src = request.get("src");
  if (src.empty()) {
    return make_error(ErrorCode::protocol, request.type + " carries no 'src' field");
  }
  return nws::SeriesKey{resource.value(), src, request.get("dst")};
}

}  // namespace

QueryServer::QueryServer(const SnapshotBoard& board, const SeriesStore& store,
                         std::size_t max_series_points)
    : board_(board),
      store_(store),
      max_series_points_(std::max<std::size_t>(max_series_points, 1)),
      server_([this](const wire::WireMessage& request,
                     wire::FrameServer::Peer&) { return handle(request); },
              kIoTimeoutS) {}

std::string QueryServer::handle(const wire::WireMessage& request) const {
  if (request.type == wire::kSnapshotFrame) return handle_snapshot();
  if (request.type == wire::kQueryFrame) return handle_query(request);
  if (request.type == wire::kSeriesFrame) return handle_series(request);
  return wire::error_payload(
      make_error(ErrorCode::protocol, "unknown frame type '" + request.type + "'"));
}

std::string QueryServer::handle_snapshot() const {
  const std::shared_ptr<const MonitorSnapshot> snapshot = board_.current();
  wire::WireMessage reply("SNAPSHOT-OK");
  reply.add_u64("version", snapshot->version);
  reply.add_u64("cycles", snapshot->cycles);
  reply.add_f64("time", snapshot->time_s);
  reply.add_u64("pairs", snapshot->pairs.size());
  reply.add_u64("measurements", snapshot->measurements);
  reply.add_u64("failures", snapshot->probe_failures);
  reply.add_u64("remaps", snapshot->remaps);
  reply.add("drifting", strings::join(snapshot->drifting_segments, ","));
  reply.add("digest", snapshot->digest());
  return reply.serialize();
}

std::string QueryServer::handle_query(const wire::WireMessage& request) const {
  auto key = key_from(request);
  if (!key.ok()) return wire::error_payload(key.error());
  const std::shared_ptr<const MonitorSnapshot> snapshot = board_.current();
  const PairReading* reading = snapshot->find(key.value());
  if (reading == nullptr) {
    return wire::error_payload(make_error(
        ErrorCode::not_found, "no series '" + key.value().to_string() + "' in snapshot v" +
                                  std::to_string(snapshot->version)));
  }
  wire::WireMessage reply("QUERY-OK");
  reply.add_f64("value", reading->forecast.value);
  reply.add_f64("mae", reading->forecast.mae);
  reply.add_f64("rmse", reading->forecast.rmse);
  reply.add("winner", reading->forecast.winner);
  reply.add_u64("samples", reading->forecast.samples);
  reply.add_f64("latest", reading->value);
  reply.add_f64("time", reading->time);
  reply.add_u64("drifting", reading->drifting ? 1 : 0);
  return reply.serialize();
}

std::string QueryServer::handle_series(const wire::WireMessage& request) const {
  auto key = key_from(request);
  if (!key.ok()) return wire::error_payload(key.error());
  std::size_t max = max_series_points_;
  if (request.has("max")) {
    auto wanted = request.u64("max");
    if (!wanted.ok()) return wire::error_payload(wanted.error());
    if (wanted.value() > 0) {
      max = std::min<std::size_t>(static_cast<std::size_t>(wanted.value()), max_series_points_);
    }
  }
  const std::vector<nws::Measurement> points = store_.series(key.value(), max);
  if (points.empty()) {
    return wire::error_payload(
        make_error(ErrorCode::not_found, "no series '" + key.value().to_string() + "'"));
  }
  std::string joined;
  for (const nws::Measurement& point : points) {
    if (!joined.empty()) joined += ',';
    codec::append_full(joined, point.time);
    joined += ':';
    codec::append_full(joined, point.value);
  }
  wire::WireMessage reply("SERIES-OK");
  reply.add_u64("count", points.size());
  reply.add("points", joined);
  return reply.serialize();
}

// --- client -----------------------------------------------------------------

Result<QueryClient> QueryClient::connect(const std::string& address, std::uint16_t port,
                                         double timeout_s) {
  auto socket = wire::TcpSocket::dial(address, port, timeout_s);
  if (!socket.ok()) return socket.error();
  return QueryClient(std::move(socket.value()), timeout_s);
}

Result<wire::WireMessage> QueryClient::request(const wire::WireMessage& message,
                                               std::string_view expected_type) {
  if (auto sent = wire::send_frame(socket_, message.serialize(), timeout_s_); !sent.ok()) {
    return sent.error();
  }
  return wire::expect_reply(wire::recv_message(socket_, buffer_, timeout_s_), expected_type,
                            message.type);
}

Result<QueryClient::SnapshotSummary> QueryClient::snapshot() {
  auto reply = request(wire::WireMessage(std::string(wire::kSnapshotFrame)), "SNAPSHOT-OK");
  if (!reply.ok()) return reply.error();
  SnapshotSummary summary;
  auto version = reply.value().u64("version");
  auto cycles = reply.value().u64("cycles");
  auto time = reply.value().f64("time");
  auto pairs = reply.value().u64("pairs");
  auto measurements = reply.value().u64("measurements");
  auto failures = reply.value().u64("failures");
  auto remaps = reply.value().u64("remaps");
  if (!version.ok()) return version.error();
  if (!cycles.ok()) return cycles.error();
  if (!time.ok()) return time.error();
  if (!pairs.ok()) return pairs.error();
  if (!measurements.ok()) return measurements.error();
  if (!failures.ok()) return failures.error();
  if (!remaps.ok()) return remaps.error();
  summary.version = version.value();
  summary.cycles = cycles.value();
  summary.time_s = time.value();
  summary.pairs = pairs.value();
  summary.measurements = measurements.value();
  summary.failures = failures.value();
  summary.remaps = remaps.value();
  summary.drifting = reply.value().get("drifting");
  summary.digest = reply.value().get("digest");
  if (summary.digest.empty()) {
    return make_error(ErrorCode::protocol, "SNAPSHOT-OK carries no digest");
  }
  return summary;
}

Result<QueryClient::PairAnswer> QueryClient::query(const nws::SeriesKey& key) {
  wire::WireMessage message(std::string(wire::kQueryFrame));
  message.add("resource", nws::to_string(key.resource));
  message.add("src", key.src);
  if (!key.dst.empty()) message.add("dst", key.dst);
  auto reply = request(message, "QUERY-OK");
  if (!reply.ok()) return reply.error();
  PairAnswer answer;
  auto value = reply.value().f64("value");
  auto mae = reply.value().f64("mae");
  auto rmse = reply.value().f64("rmse");
  auto samples = reply.value().u64("samples");
  auto latest = reply.value().f64("latest");
  auto time = reply.value().f64("time");
  auto drifting = reply.value().u64("drifting");
  if (!value.ok()) return value.error();
  if (!mae.ok()) return mae.error();
  if (!rmse.ok()) return rmse.error();
  if (!samples.ok()) return samples.error();
  if (!latest.ok()) return latest.error();
  if (!time.ok()) return time.error();
  if (!drifting.ok()) return drifting.error();
  answer.forecast.value = value.value();
  answer.forecast.mae = mae.value();
  answer.forecast.rmse = rmse.value();
  answer.forecast.winner = reply.value().get("winner");
  answer.forecast.samples = static_cast<std::size_t>(samples.value());
  answer.latest = latest.value();
  answer.latest_time = time.value();
  answer.drifting = drifting.value() != 0;
  return answer;
}

Result<std::vector<nws::Measurement>> QueryClient::series(const nws::SeriesKey& key,
                                                          std::size_t max) {
  wire::WireMessage message(std::string(wire::kSeriesFrame));
  message.add("resource", nws::to_string(key.resource));
  message.add("src", key.src);
  if (!key.dst.empty()) message.add("dst", key.dst);
  if (max > 0) message.add_u64("max", max);
  auto reply = request(message, "SERIES-OK");
  if (!reply.ok()) return reply.error();
  auto count = reply.value().u64("count");
  if (!count.ok()) return count.error();
  std::vector<nws::Measurement> points;
  for (const auto& token : strings::split_nonempty(reply.value().get("points"), ',')) {
    const auto colon = token.find(':');
    if (colon == std::string::npos) {
      return make_error(ErrorCode::protocol, "bad SERIES-OK point token '" + token + "'");
    }
    auto time = codec::numeric_field<double>(token.substr(0, colon), "point time", "SERIES-OK");
    if (!time.ok()) return time.error();
    auto value =
        codec::numeric_field<double>(token.substr(colon + 1), "point value", "SERIES-OK");
    if (!value.ok()) return value.error();
    points.push_back(nws::Measurement{time.value(), value.value()});
  }
  if (points.size() != count.value()) {
    return make_error(ErrorCode::protocol, "SERIES-OK count disagrees with its point list");
  }
  return points;
}

}  // namespace envnws::monitor
