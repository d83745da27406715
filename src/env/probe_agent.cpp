#include "env/probe_agent.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>

#include "common/codec.hpp"

namespace envnws::env {

namespace {

using Clock = std::chrono::steady_clock;

/// Deterministic bulk payload chunk (the bytes themselves carry no
/// information; the transfer's size and timing do).
const std::array<char, 64 * 1024>& payload_chunk() {
  static const std::array<char, 64 * 1024> chunk = [] {
    std::array<char, 64 * 1024> filled{};
    filled.fill('e');
    return filled;
  }();
  return chunk;
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

void sleep_s(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

/// Serialize a property map as `k:v,k:v` with each key/value
/// individually escaped (the whole field is escaped once more by the
/// frame serializer; the engine unescapes the pieces after splitting).
std::string encode_properties(const std::map<std::string, std::string>& properties) {
  std::string out;
  for (const auto& [key, value] : properties) {
    if (!out.empty()) out += ',';
    codec::append_escaped(out, key);
    out += ':';
    codec::append_escaped(out, value);
  }
  return out;
}

}  // namespace

ProbeAgent::ProbeAgent(ProbeAgentConfig config)
    : config_(std::move(config)),
      server_([this](const wire::WireMessage& message,
                     wire::FrameServer::Peer& peer) { return handle(message, peer); },
              config_.io_timeout_s) {}

ProbeStats ProbeAgent::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string ProbeAgent::handle(const wire::WireMessage& message, wire::FrameServer::Peer& peer) {
  if (message.type == "HELLO") {
    wire::WireMessage reply("HELLO-OK");
    reply.add("name", config_.name);
    reply.add("fqdn", config_.fqdn);
    reply.add("ip", config_.ip);
    if (!config_.properties.empty()) reply.add("props", encode_properties(config_.properties));
    reply.add_f64("rate", config_.fixed_rate_bps);
    return reply.serialize();
  }
  if (message.type == "PING") {
    auto seq = message.u64("seq");
    if (!seq.ok()) return wire::error_payload(seq.error());
    return wire::WireMessage("PONG").add_u64("seq", seq.value()).serialize();
  }
  if (message.type == "STATS") {
    const ProbeStats stats = this->stats();
    wire::WireMessage reply("STATS-OK");
    reply.add_u64("experiments", stats.experiments);
    reply.add_u64("bytes", static_cast<std::uint64_t>(std::max<std::int64_t>(stats.bytes_sent, 0)));
    reply.add_f64("busy", stats.busy_time_s);
    return reply.serialize();
  }
  if (message.type == "BWXFER") return handle_bwxfer(message);
  if (message.type == "BULK") return handle_bulk(message, peer);
  return wire::error_payload(
      make_error(ErrorCode::protocol, "unknown frame type '" + message.type + "'"));
}

std::string ProbeAgent::handle_bwxfer(const wire::WireMessage& message) {
  const std::string to = message.get("to");
  auto port = message.u64("port");
  auto bytes = message.u64("bytes");
  auto streams = message.has("streams") ? message.u64("streams") : Result<std::uint64_t>(1);
  if (to.empty()) {
    return wire::error_payload(make_error(ErrorCode::protocol, "BWXFER carries no 'to' field"));
  }
  if (!port.ok()) return wire::error_payload(port.error());
  if (!bytes.ok()) return wire::error_payload(bytes.error());
  if (!streams.ok()) return wire::error_payload(streams.error());
  if (port.value() == 0 || port.value() > 65535) {
    return wire::error_payload(make_error(ErrorCode::protocol, "BWXFER port out of range"));
  }
  if (bytes.value() == 0 || bytes.value() > static_cast<std::uint64_t>(wire::kMaxBulkBytes)) {
    return wire::error_payload(make_error(ErrorCode::protocol, "BWXFER bytes out of range"));
  }
  if (streams.value() == 0 || streams.value() > 1024) {
    return wire::error_payload(make_error(ErrorCode::protocol, "BWXFER streams out of range"));
  }

  auto peer = wire::TcpSocket::dial(to, static_cast<std::uint16_t>(port.value()),
                                    config_.io_timeout_s);
  if (!peer.ok()) {
    Error error = peer.error();
    error.message = "peer " + to + ":" + std::to_string(port.value()) + ": " + error.message;
    return wire::error_payload(error);
  }
  wire::WireMessage bulk("BULK");
  bulk.add_u64("bytes", bytes.value());
  bulk.add_u64("streams", streams.value());
  if (auto sent = wire::send_frame(peer.value(), bulk.serialize(), config_.io_timeout_s);
      !sent.ok()) {
    return wire::error_payload(sent.error());
  }
  std::uint64_t left = bytes.value();
  const auto& chunk = payload_chunk();
  while (left > 0) {
    const std::size_t piece = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, chunk.size()));
    if (auto sent = peer.value().send_all(std::string_view(chunk.data(), piece),
                                          config_.io_timeout_s);
        !sent.ok()) {
      return wire::error_payload(sent.error());
    }
    left -= piece;
  }
  wire::FrameBuffer peer_buffer;
  auto verdict = wire::recv_message(peer.value(), peer_buffer, config_.io_timeout_s);
  if (!verdict.ok()) return wire::error_payload(verdict.error());
  Error peer_error;
  if (wire::is_error(verdict.value(), peer_error)) return wire::error_payload(peer_error);
  if (verdict.value().type != "BULK-OK") {
    return wire::error_payload(make_error(
        ErrorCode::protocol, "unexpected peer reply '" + verdict.value().type + "' to BULK"));
  }
  auto seconds = verdict.value().f64("seconds");
  if (!seconds.ok()) return wire::error_payload(seconds.error());
  if (!(seconds.value() > 0.0)) {
    return wire::error_payload(make_error(ErrorCode::protocol, "BULK-OK seconds out of range"));
  }
  const double bps = static_cast<double>(bytes.value()) * 8.0 / seconds.value();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.experiments;
    stats_.bytes_sent += static_cast<std::int64_t>(bytes.value());
    stats_.busy_time_s += seconds.value();
  }
  wire::WireMessage reply("BWXFER-OK");
  reply.add_f64("bps", bps);
  reply.add_f64("seconds", seconds.value());
  reply.add_u64("bytes", bytes.value());
  return reply.serialize();
}

std::string ProbeAgent::handle_bulk(const wire::WireMessage& message,
                                    wire::FrameServer::Peer& peer) {
  auto bytes = message.u64("bytes");
  auto streams = message.has("streams") ? message.u64("streams") : Result<std::uint64_t>(1);
  if (!bytes.ok()) return wire::error_payload(bytes.error());
  if (!streams.ok()) return wire::error_payload(streams.error());
  if (bytes.value() == 0 || bytes.value() > static_cast<std::uint64_t>(wire::kMaxBulkBytes)) {
    return wire::error_payload(make_error(ErrorCode::protocol, "BULK bytes out of range"));
  }
  if (streams.value() == 0 || streams.value() > 1024) {
    return wire::error_payload(make_error(ErrorCode::protocol, "BULK streams out of range"));
  }
  const auto begin = Clock::now();
  // The payload follows the frame as raw bytes: drain whatever the
  // frame decoder already buffered, then sink the rest off the socket.
  std::uint64_t left = bytes.value();
  left -= peer.buffer().take_raw(static_cast<std::size_t>(left)).size();
  std::array<char, 64 * 1024> sink;
  while (left > 0) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, sink.size()));
    auto got = peer.socket().recv_some(sink.data(), want, config_.io_timeout_s);
    if (!got.ok()) return wire::error_payload(got.error());
    left -= got.value();
  }
  double seconds = std::max(elapsed_s(begin), 1e-9);
  if (config_.fixed_rate_bps > 0.0) {
    // A usable_fraction below 1.0 models TCP overhead (lv08: payload
    // extracts 97% of the raw rate), stretching the reported time.
    const double goodput_bps =
        config_.fixed_rate_bps * std::clamp(config_.usable_fraction, 1e-6, 1.0);
    const double modeled = static_cast<double>(bytes.value()) * 8.0 *
                           static_cast<double>(streams.value()) / goodput_bps;
    if (config_.pace) sleep_s(modeled - seconds);
    seconds = modeled;
  }
  wire::WireMessage reply("BULK-OK");
  reply.add_f64("seconds", seconds);
  reply.add_u64("bytes", bytes.value());
  return reply.serialize();
}

}  // namespace envnws::env
