// The probe-agent wire protocol (docs/SOCKET_ENGINE.md).
//
// `env::SocketProbeEngine` talks to long-lived probe agents — NWS-style
// sensor processes — over TCP using length-prefixed text frames:
//
//   "ENVP <payload-bytes>\n" <payload>
//
// The payload is one line: a TYPE token followed by `key=value` fields
// (values percent-escaped by common/codec.hpp, so names and error
// messages survive spaces).
// Control frames are HELLO / PING / BWXFER / STATS (engine -> agent) and
// BULK (agent -> agent bulk transfer); replies are `<TYPE>-OK`, `PONG`
// or `ERR code=<ErrorCode> msg=<text>`.
//
// Everything here is deliberately exception-free and fuzz-safe: frame
// decoding (`FrameBuffer`) bounds the header and payload sizes before
// trusting them, every numeric field goes through `common/parse.hpp`,
// and malformed input of any kind comes back as a `Result` error — the
// robustness contract tests/env/socket_protocol_test.cpp hammers on.
//
// The agent roster (`AgentRoster`) is the operator-supplied "sensor
// directory": one `<host> <ipv4>:<port>` line per agent, hostnames being
// exactly the names the mapper probes with. Parsing rejects malformed
// lines with `<source>:<line>:` prefixed errors, mirroring the PR 4
// parse-hardening pattern.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace envnws::env::wire {

/// Frame magic: every frame starts with exactly "ENVP ".
inline constexpr std::string_view kMagic = "ENVP ";
/// Upper bound on one control-frame payload. Bulk transfer data is NOT
/// framed (it follows a BULK frame as raw bytes), so control frames can
/// stay small and a hostile length prefix is rejected cheaply.
inline constexpr std::size_t kMaxFramePayload = 64 * 1024;
/// Upper bound on the header ("ENVP <len>\n"); anything longer without a
/// newline cannot be a valid header.
inline constexpr std::size_t kMaxFrameHeader = 24;
/// Upper bound on one BULK transfer (defensive: probe payloads are MiB).
inline constexpr std::int64_t kMaxBulkBytes = std::int64_t(1) << 30;

/// Serialize one frame: header + payload.
[[nodiscard]] std::string encode_frame(const std::string& payload);

/// Incremental frame decoder over a received byte stream. Feed bytes as
/// they arrive; `next_view()` yields complete payloads. Pure memory — the
/// fuzz tests drive it without any socket.
class FrameBuffer {
 public:
  void feed(const char* data, std::size_t size);
  void feed(std::string_view data) { feed(data.data(), data.size()); }

  /// One decoded payload, `nullopt` when more bytes are needed, or a
  /// `protocol` error when the stream cannot be a frame (bad magic,
  /// junk or oversized length, unterminated header). After an error the
  /// stream is unrecoverable: the buffer stays poisoned and every later
  /// call returns the same error. The payload is a view into the buffer,
  /// valid until the next call on this buffer.
  Result<std::optional<std::string_view>> next_view();

  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - head_; }

  /// Extract up to `max` already-buffered bytes as raw data. Frames may
  /// be followed by unframed payload (BULK transfers); when the sender
  /// coalesces frame and payload into one TCP segment, the tail lands
  /// here and the bulk reader drains it before touching the socket.
  [[nodiscard]] std::string take_raw(std::size_t max);

 private:
  /// Received bytes; those before `head_` are consumed. `feed` drops
  /// the consumed prefix, so a frame's bytes move at most once after
  /// they arrive, however many frames one read brought in.
  std::string buffer_;
  std::size_t head_ = 0;
  std::optional<Error> poisoned_;
};

/// One parsed control message: TYPE plus ordered key=value fields.
struct WireMessage {
  std::string type;
  std::vector<std::pair<std::string, std::string>> fields;

  WireMessage() = default;
  explicit WireMessage(std::string type_) : type(std::move(type_)) {}

  WireMessage& add(const std::string& key, const std::string& value);
  WireMessage& add_u64(const std::string& key, std::uint64_t value);
  WireMessage& add_f64(const std::string& key, double value);  ///< 17 significant digits

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = {}) const;
  /// Numeric accessors: `protocol` errors naming the field on junk,
  /// missing values, or out-of-range magnitudes (via common/parse.hpp).
  [[nodiscard]] Result<double> f64(const std::string& key) const;
  [[nodiscard]] Result<std::uint64_t> u64(const std::string& key) const;

  /// `parse(serialize())` round-trips.
  [[nodiscard]] std::string serialize() const;
  static Result<WireMessage> parse(std::string_view payload);
};

/// Build an `ERR` reply frame payload.
[[nodiscard]] std::string error_payload(const Error& error);
/// True when the message is an `ERR` frame; fills `error` (unknown code
/// strings degrade to `protocol`).
[[nodiscard]] bool is_error(const WireMessage& message, Error& error);

/// Reply-type guard shared by every client of the protocol: passes the
/// reply through when it carries `expected_type`, converts `ERR` frames
/// into the error they carry, and reports any other type as a `protocol`
/// error naming the request (`context`) it answered.
[[nodiscard]] Result<WireMessage> expect_reply(Result<WireMessage> reply,
                                               std::string_view expected_type,
                                               std::string_view context);

// --- monitor frames ---------------------------------------------------------
//
// The monitoring daemon (src/monitor/, docs/MONITORD.md) serves query
// clients over the same framed protocol the probe agents speak:
//
//   SNAPSHOT                          -> SNAPSHOT-OK version= cycles= time=
//                                        pairs= measurements= failures=
//                                        drifting= remaps= digest=
//   QUERY resource= src= [dst=]       -> QUERY-OK value= mae= rmse= winner=
//                                        samples= latest= time= drifting=
//   SERIES resource= src= [dst=] [max=] -> SERIES-OK count= points=t:v,...
//
// SNAPSHOT and QUERY are answered entirely from the immutable published
// MonitorSnapshot (the RCU read path); SERIES reads the series store.
// Unknown pairs answer `ERR code=not_found`; malformed requests
// `ERR code=protocol` — the same error surface as the probe agents.
inline constexpr std::string_view kSnapshotFrame = "SNAPSHOT";
inline constexpr std::string_view kQueryFrame = "QUERY";
inline constexpr std::string_view kSeriesFrame = "SERIES";

// --- agent roster -----------------------------------------------------------

struct AgentEndpoint {
  std::string host;     ///< the name the mapper probes with
  std::string address;  ///< numeric IPv4 ("127.0.0.1" for loopback fleets)
  std::uint16_t port = 0;
};

/// The roster file: `<host> <ipv4>:<port>` per line, `#` comments and
/// blank lines ignored. Order is preserved (it is the operator's
/// document); lookups go by host name.
struct AgentRoster {
  std::vector<AgentEndpoint> agents;
  std::string source = "<memory>";

  /// Malformed lines fail with `<source>:<line>: ...` errors: missing
  /// address or port, non-numeric address, junk/out-of-range port,
  /// duplicate host, trailing tokens.
  static Result<AgentRoster> parse(const std::string& text, std::string source = "<memory>");
  /// `not_found` when the file does not exist.
  static Result<AgentRoster> load(const std::string& path);

  [[nodiscard]] const AgentEndpoint* find(const std::string& host) const;
  [[nodiscard]] bool empty() const { return agents.empty(); }
  [[nodiscard]] std::string to_string() const;  ///< parse(to_string()) round-trips
};

// --- bounded socket I/O -----------------------------------------------------

/// Movable owner of one connected TCP socket (non-blocking; every
/// operation takes an explicit timeout). All errors are `Result`s:
/// `unreachable` for refused/reset/closed peers, `timeout` when the
/// deadline passes — the distinction the engine surfaces to the mapper.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd);
  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;
  ~TcpSocket();

  /// Connect to `ipv4:port` within `timeout_s`.
  static Result<TcpSocket> dial(const std::string& ipv4, std::uint16_t port, double timeout_s);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  Status send_all(std::string_view data, double timeout_s);
  /// Up to `cap` bytes; an orderly peer close is an `unreachable` error
  /// ("connection closed"), since every protocol exchange here expects
  /// a reply.
  Result<std::size_t> recv_some(char* out, std::size_t cap, double timeout_s);
  /// Exactly `size` bytes or an error.
  Status recv_exact(char* out, std::size_t size, double timeout_s);

  /// Wake any thread blocked in send/recv on this socket (used by agent
  /// shutdown); the socket stays owned by its thread.
  void shutdown_both();
  void close_fd();

 private:
  int fd_ = -1;
};

/// Listening socket (the agent side). `port == 0` binds an ephemeral
/// port; `port()` reports the real one.
class TcpListener {
 public:
  TcpListener() = default;
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  static Result<TcpListener> listen(const std::string& ipv4, std::uint16_t port);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// One accepted connection; `timeout` error when none arrived in time
  /// (the accept loop polls so it can observe a stop flag).
  Result<TcpSocket> accept(double timeout_s);
  void close_fd();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Send one framed payload.
Status send_frame(TcpSocket& socket, const std::string& payload, double timeout_s);
/// Receive one frame through `buffer` (which carries any bytes read
/// beyond the frame into the next call) and parse it as a control
/// message.
Result<WireMessage> recv_message(TcpSocket& socket, FrameBuffer& buffer, double timeout_s);

// --- server -----------------------------------------------------------------

/// The one TCP server of the framed protocol, behind both the probe
/// agent and monitord's query front-end. An acceptor thread polls the
/// listener every 0.25 s; each connection gets its own thread, which
/// answers every request already in its buffer, queueing one reply per
/// request in request order, and writes the queue in one send before it
/// waits for more bytes. A client that sends one request at a time thus
/// gets each reply as soon as it is made; one that pipelines gets a
/// batch's replies in one write. The queue is also written once it
/// holds kMaxQueuedReplyBytes, before a handler touches the socket, and
/// before the connection closes. A stream that cannot be framed earns
/// one ERR, after the replies queued before it, and is closed (the frame
/// boundary is lost); a framed but unparseable message earns an ERR and
/// the connection keeps serving. On every acceptor wake-up (an accept or
/// a poll timeout) finished connections are joined and dropped, so a
/// server that runs forever holds only its live connections.
class FrameServer {
 public:
  /// Queued replies are written once they reach this many bytes, so one
  /// connection holds at most this much plus one reply.
  static constexpr std::size_t kMaxQueuedReplyBytes = 64 * 1024;

  /// One connection as its handler sees it. Handlers that read unframed
  /// bytes after the frame (BULK) drain `buffer()` first, then read the
  /// rest off `socket()`.
  class Peer {
   public:
    /// Bytes received past the frame being handled.
    [[nodiscard]] FrameBuffer& buffer() { return buffer_; }
    /// The connection's socket, once every queued reply is written: the
    /// client has the answers to its earlier requests before the handler
    /// waits on it. A failed write ends the connection after the handler
    /// returns.
    [[nodiscard]] TcpSocket& socket();

   private:
    friend class FrameServer;
    Peer(TcpSocket& socket, double timeout_s) : socket_(socket), timeout_s_(timeout_s) {}

    /// Frame `payload` onto the queue; writes the queue once it reaches
    /// kMaxQueuedReplyBytes.
    Status queue(std::string_view payload);
    /// Write every queued reply in one send. The queue is empty
    /// afterwards either way; once a write has failed, so does every
    /// later one.
    Status flush();

    TcpSocket& socket_;
    double timeout_s_;
    FrameBuffer buffer_;
    std::string queued_;
    std::optional<Error> failed_;
  };

  /// One request -> one reply payload.
  using Handler = std::function<std::string(const WireMessage&, Peer&)>;

  /// `io_timeout_s` bounds every receive and send; an idle connection
  /// is closed after that long.
  FrameServer(Handler handler, double io_timeout_s);
  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Bind and start serving; `port == 0` picks an ephemeral port.
  Status start(const std::string& address, std::uint16_t port);
  /// Wake every in-flight connection (shutdown) and join all threads.
  /// Idempotent; also called by the destructor.
  void stop();

  [[nodiscard]] bool running() const;
  /// The bound port (the ephemeral one when start() was given 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Requests answered, unparseable ones included. A request counts as
  /// soon as its reply is queued, before the reply is written, so a
  /// client holding a reply always sees it counted.
  [[nodiscard]] std::uint64_t requests_served() const { return requests_.load(); }
  /// Connections not yet reaped (live ones plus those finished since the
  /// acceptor last woke).
  [[nodiscard]] std::size_t connections() const;

 private:
  struct Connection {
    TcpSocket socket;
    std::thread thread;
    bool done = false;
  };

  void accept_loop();
  void serve(Connection& conn);
  /// Join and drop every finished connection.
  void reap();

  Handler handler_;
  double io_timeout_s_;
  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<std::uint64_t> requests_{0};
  mutable std::mutex mutex_;  ///< guards conns_, running_, stopping_ and socket closes
  bool running_ = false;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace envnws::env::wire
