#include "env/probe_wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "common/codec.hpp"
#include "common/parse.hpp"
#include "common/strings.hpp"

namespace envnws::env::wire {

namespace {

using Clock = std::chrono::steady_clock;

Error protocol_error(std::string message) {
  return make_error(ErrorCode::protocol, std::move(message));
}

/// Seconds left before `deadline` (clamped at 0).
double remaining_s(Clock::time_point deadline) {
  const auto left = std::chrono::duration<double>(deadline - Clock::now()).count();
  return left > 0.0 ? left : 0.0;
}

/// Bytes asked of one recv() by the frame readers.
constexpr std::size_t kRecvChunk = 16384;

Clock::time_point deadline_after(double timeout_s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(timeout_s > 0.0 ? timeout_s : 0.0));
}

/// poll() one fd for the given events within the deadline. Returns true
/// when ready, false on timeout, an error on poll failure.
Result<bool> wait_ready(int fd, short events, Clock::time_point deadline) {
  while (true) {
    const double left = remaining_s(deadline);
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = events;
    const int timeout_ms = static_cast<int>(left * 1000.0) + (left > 0.0 ? 1 : 0);
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0) return true;
    if (ready == 0) return false;
    if (errno == EINTR) continue;
    return make_error(ErrorCode::internal, std::string("poll failed: ") + std::strerror(errno));
  }
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return make_error(ErrorCode::internal,
                      std::string("cannot set socket non-blocking: ") + std::strerror(errno));
  }
  return {};
}

Result<struct sockaddr_in> make_address(const std::string& ipv4, std::uint16_t port) {
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, ipv4.c_str(), &addr.sin_addr) != 1) {
    return make_error(ErrorCode::invalid_argument, "bad IPv4 address '" + ipv4 + "'");
  }
  return addr;
}

/// Append one frame (header + payload) to `out`.
void append_frame(std::string& out, std::string_view payload) {
  char length[24];
  const auto [end, ec] = std::to_chars(std::begin(length), std::end(length), payload.size());
  (void)ec;  // a size_t always fits 24 digits
  out += kMagic;
  out.append(length, end);
  out += '\n';
  out += payload;
}

}  // namespace

// --- frames -----------------------------------------------------------------

std::string encode_frame(const std::string& payload) {
  std::string frame;
  frame.reserve(kMagic.size() + 12 + payload.size());
  append_frame(frame, payload);
  return frame;
}

void FrameBuffer::feed(const char* data, std::size_t size) {
  buffer_.erase(0, head_);
  head_ = 0;
  buffer_.append(data, size);
}

Result<std::optional<std::string_view>> FrameBuffer::next_view() {
  if (poisoned_.has_value()) return *poisoned_;
  const auto poison = [this](Error error) -> Result<std::optional<std::string_view>> {
    poisoned_ = std::move(error);
    return *poisoned_;
  };
  const std::string_view pending = std::string_view(buffer_).substr(head_);
  // Magic check on whatever prefix has arrived: diverging early beats
  // buffering a hostile stream while waiting for a newline.
  const std::size_t check = std::min(pending.size(), kMagic.size());
  if (pending.substr(0, check) != kMagic.substr(0, check)) {
    return poison(protocol_error("bad frame magic (expected 'ENVP ')"));
  }
  const auto newline = pending.find('\n');
  if (newline == std::string_view::npos) {
    if (pending.size() >= kMaxFrameHeader) {
      return poison(protocol_error("unterminated frame header"));
    }
    return std::optional<std::string_view>();  // need more bytes
  }
  if (newline >= kMaxFrameHeader) {
    return poison(protocol_error("oversized frame header"));
  }
  const std::string length_token(pending.substr(kMagic.size(), newline - kMagic.size()));
  const auto length = parse::to_u64(length_token);
  if (!length.has_value()) {
    return poison(protocol_error("bad frame length '" + length_token + "'"));
  }
  if (*length > kMaxFramePayload) {
    return poison(protocol_error("oversized frame payload (" + length_token + " bytes, max " +
                                 std::to_string(kMaxFramePayload) + ")"));
  }
  const std::size_t total = newline + 1 + static_cast<std::size_t>(*length);
  if (pending.size() < total) return std::optional<std::string_view>();  // need more bytes
  head_ += total;
  return std::optional<std::string_view>(
      pending.substr(newline + 1, static_cast<std::size_t>(*length)));
}

std::string FrameBuffer::take_raw(std::size_t max) {
  const std::size_t take = std::min(max, buffered());
  std::string out = buffer_.substr(head_, take);
  head_ += take;
  return out;
}

// --- messages ---------------------------------------------------------------

WireMessage& WireMessage::add(const std::string& key, const std::string& value) {
  fields.emplace_back(key, value);
  return *this;
}

WireMessage& WireMessage::add_u64(const std::string& key, std::uint64_t value) {
  return add(key, std::to_string(value));
}

WireMessage& WireMessage::add_f64(const std::string& key, double value) {
  return add(key, codec::format_full(value));
}

bool WireMessage::has(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return true;
  }
  return false;
}

std::string WireMessage::get(const std::string& key, const std::string& fallback) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return fallback;
}

Result<double> WireMessage::f64(const std::string& key) const {
  if (!has(key)) return protocol_error(type + " frame carries no '" + key + "' field");
  return codec::numeric_field<double>(get(key), key, type + " frame");
}

Result<std::uint64_t> WireMessage::u64(const std::string& key) const {
  if (!has(key)) return protocol_error(type + " frame carries no '" + key + "' field");
  return codec::numeric_field<std::uint64_t>(get(key), key, type + " frame");
}

std::string WireMessage::serialize() const {
  std::string out = type;
  for (const auto& [key, value] : fields) {
    out += ' ';
    out += key;
    out += '=';
    codec::append_escaped(out, value);
  }
  return out;
}

Result<WireMessage> WireMessage::parse(std::string_view payload) {
  if (payload.empty()) return protocol_error("empty frame payload");
  // Tokens are the runs between single spaces; `end` is the space after
  // the current one, or npos for the last.
  std::size_t end = payload.find(' ');
  const std::string_view type = payload.substr(0, end);
  if (type.empty()) return protocol_error("frame payload starts with a separator");
  for (const char c : type) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-';
    if (!ok) return protocol_error("bad frame type '" + std::string(type) + "'");
  }
  WireMessage message{std::string(type)};
  while (end != std::string_view::npos) {
    const std::size_t begin = end + 1;
    end = payload.find(' ', begin);
    const std::string_view token =
        payload.substr(begin, end == std::string_view::npos ? end : end - begin);
    const auto eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {  // an empty token has no '=' either
      return protocol_error("bad field token '" + std::string(token) + "' in " + message.type +
                            " frame");
    }
    auto value = codec::unescape(token.substr(eq + 1));
    if (!value.ok()) return value.error();
    message.fields.emplace_back(std::string(token.substr(0, eq)), std::move(value.value()));
  }
  return message;
}

std::string error_payload(const Error& error) {
  return WireMessage("ERR")
      .add("code", envnws::to_string(error.code))
      .add("msg", error.message)
      .serialize();
}

bool is_error(const WireMessage& message, Error& error) {
  if (message.type != "ERR") return false;
  const auto code = error_code_from_string(message.get("code"));
  error.code = code.value_or(ErrorCode::protocol);
  error.message = message.get("msg", "unspecified agent error");
  return true;
}

Result<WireMessage> expect_reply(Result<WireMessage> reply, std::string_view expected_type,
                                 std::string_view context) {
  if (!reply.ok()) return reply;
  Error carried;
  if (is_error(reply.value(), carried)) return carried;
  if (reply.value().type != expected_type) {
    return make_error(ErrorCode::protocol, "unexpected reply '" + reply.value().type + "' to " +
                                               std::string(context));
  }
  return reply;
}

// --- roster -----------------------------------------------------------------

Result<AgentRoster> AgentRoster::parse(const std::string& text, std::string source) {
  AgentRoster roster;
  roster.source = std::move(source);
  std::set<std::string> seen;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  const auto fail = [&](const std::string& what) {
    return make_error(ErrorCode::invalid_argument,
                      roster.source + ":" + std::to_string(line_number) + ": " + what);
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    const auto tokens = strings::split_nonempty(strings::trim(line), ' ');
    std::vector<std::string> flat;
    for (const auto& token : tokens) {
      // Tolerate tab-separated rosters too.
      for (const auto& piece : strings::split_nonempty(token, '\t')) flat.push_back(piece);
    }
    if (flat.empty()) continue;
    if (flat.size() == 1) return Result<AgentRoster>(fail("missing address (expected '<host> <ipv4>:<port>')"));
    if (flat.size() > 2) return Result<AgentRoster>(fail("trailing tokens after '<host> <ipv4>:<port>'"));
    AgentEndpoint endpoint;
    endpoint.host = flat[0];
    const std::string& location = flat[1];
    const auto colon = location.rfind(':');
    if (colon == std::string::npos) {
      return Result<AgentRoster>(fail("missing port in '" + location + "'"));
    }
    endpoint.address = location.substr(0, colon);
    const std::string port_token = location.substr(colon + 1);
    struct in_addr parsed_addr {};
    if (endpoint.address.empty() ||
        ::inet_pton(AF_INET, endpoint.address.c_str(), &parsed_addr) != 1) {
      return Result<AgentRoster>(fail("bad address '" + endpoint.address +
                                      "' (numeric IPv4 required)"));
    }
    const auto port = parse::to_u64(port_token);
    if (!port.has_value() || *port == 0 || *port > 65535) {
      return Result<AgentRoster>(fail("bad port '" + port_token + "' (expected 1..65535)"));
    }
    endpoint.port = static_cast<std::uint16_t>(*port);
    if (!seen.insert(endpoint.host).second) {
      return Result<AgentRoster>(fail("duplicate host '" + endpoint.host + "'"));
    }
    roster.agents.push_back(std::move(endpoint));
  }
  return roster;
}

Result<AgentRoster> AgentRoster::load(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    return make_error(ErrorCode::not_found, "no agent roster at '" + path + "'");
  }
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return make_error(ErrorCode::internal, "cannot read agent roster '" + path + "'");
  }
  return parse(text.str(), path);
}

const AgentEndpoint* AgentRoster::find(const std::string& host) const {
  for (const auto& agent : agents) {
    if (agent.host == host) return &agent;
  }
  return nullptr;
}

std::string AgentRoster::to_string() const {
  std::ostringstream out;
  for (const auto& agent : agents) {
    out << agent.host << ' ' << agent.address << ':' << agent.port << '\n';
  }
  return out.str();
}

// --- sockets ----------------------------------------------------------------

TcpSocket::TcpSocket(int fd) : fd_(fd) {}

TcpSocket::TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

TcpSocket::~TcpSocket() { close_fd(); }

void TcpSocket::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpSocket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<TcpSocket> TcpSocket::dial(const std::string& ipv4, std::uint16_t port,
                                  double timeout_s) {
  const auto addr = make_address(ipv4, port);
  if (!addr.ok()) return addr.error();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return make_error(ErrorCode::internal,
                      std::string("cannot create socket: ") + std::strerror(errno));
  }
  TcpSocket socket(fd);
  if (auto status = set_nonblocking(fd); !status.ok()) return status.error();
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  const auto deadline = deadline_after(timeout_s);
  struct sockaddr_in address = addr.value();
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&address), sizeof(address)) == 0) {
    return socket;
  }
  if (errno != EINPROGRESS) {
    return make_error(ErrorCode::unreachable, "connect to " + ipv4 + ":" +
                                                  std::to_string(port) + " failed: " +
                                                  std::strerror(errno));
  }
  auto ready = wait_ready(fd, POLLOUT, deadline);
  if (!ready.ok()) return ready.error();
  if (!ready.value()) {
    return make_error(ErrorCode::timeout, "connect to " + ipv4 + ":" + std::to_string(port) +
                                              " timed out");
  }
  int error = 0;
  socklen_t length = sizeof(error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &length) != 0 || error != 0) {
    return make_error(ErrorCode::unreachable,
                      "connect to " + ipv4 + ":" + std::to_string(port) +
                          " failed: " + std::strerror(error != 0 ? error : errno));
  }
  return socket;
}

Status TcpSocket::send_all(std::string_view data, double timeout_s) {
  if (fd_ < 0) return make_error(ErrorCode::internal, "send on closed socket");
  const auto deadline = deadline_after(timeout_s);
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t wrote =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (wrote > 0) {
      sent += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      auto ready = wait_ready(fd_, POLLOUT, deadline);
      if (!ready.ok()) return ready.error();
      if (!ready.value()) return make_error(ErrorCode::timeout, "send timed out");
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    return make_error(ErrorCode::unreachable,
                      std::string("send failed: ") + std::strerror(errno));
  }
  return {};
}

Result<std::size_t> TcpSocket::recv_some(char* out, std::size_t cap, double timeout_s) {
  if (fd_ < 0) return make_error(ErrorCode::internal, "recv on closed socket");
  const auto deadline = deadline_after(timeout_s);
  while (true) {
    const ssize_t got = ::recv(fd_, out, cap, 0);
    if (got > 0) return static_cast<std::size_t>(got);
    if (got == 0) return make_error(ErrorCode::unreachable, "connection closed by peer");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      auto ready = wait_ready(fd_, POLLIN, deadline);
      if (!ready.ok()) return ready.error();
      if (!ready.value()) return make_error(ErrorCode::timeout, "recv timed out");
      continue;
    }
    if (errno == EINTR) continue;
    return make_error(ErrorCode::unreachable,
                      std::string("recv failed: ") + std::strerror(errno));
  }
}

Status TcpSocket::recv_exact(char* out, std::size_t size, double timeout_s) {
  const auto deadline = deadline_after(timeout_s);
  std::size_t received = 0;
  while (received < size) {
    auto got = recv_some(out + received, size - received, remaining_s(deadline));
    if (!got.ok()) return got.error();
    received += got.value();
  }
  return {};
}

TcpListener::TcpListener(TcpListener&& other) noexcept : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

TcpListener::~TcpListener() { close_fd(); }

void TcpListener::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpListener> TcpListener::listen(const std::string& ipv4, std::uint16_t port) {
  const auto addr = make_address(ipv4, port);
  if (!addr.ok()) return addr.error();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return make_error(ErrorCode::internal,
                      std::string("cannot create socket: ") + std::strerror(errno));
  }
  TcpListener listener;
  listener.fd_ = fd;
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  if (auto status = set_nonblocking(fd); !status.ok()) return status.error();
  struct sockaddr_in address = addr.value();
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&address), sizeof(address)) != 0) {
    return make_error(ErrorCode::internal, "cannot bind " + ipv4 + ":" + std::to_string(port) +
                                               ": " + std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    return make_error(ErrorCode::internal,
                      std::string("cannot listen: ") + std::strerror(errno));
  }
  struct sockaddr_in bound {};
  socklen_t length = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &length) != 0) {
    return make_error(ErrorCode::internal,
                      std::string("cannot read bound port: ") + std::strerror(errno));
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<TcpSocket> TcpListener::accept(double timeout_s) {
  if (fd_ < 0) return make_error(ErrorCode::internal, "accept on closed listener");
  const auto deadline = deadline_after(timeout_s);
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      TcpSocket socket(fd);
      if (auto status = set_nonblocking(fd); !status.ok()) return status.error();
      const int nodelay = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      return socket;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      auto ready = wait_ready(fd_, POLLIN, deadline);
      if (!ready.ok()) return ready.error();
      if (!ready.value()) return make_error(ErrorCode::timeout, "accept timed out");
      continue;
    }
    if (errno == EINTR) continue;
    return make_error(ErrorCode::internal,
                      std::string("accept failed: ") + std::strerror(errno));
  }
}

Status send_frame(TcpSocket& socket, const std::string& payload, double timeout_s) {
  return socket.send_all(encode_frame(payload), timeout_s);
}

Result<WireMessage> recv_message(TcpSocket& socket, FrameBuffer& buffer, double timeout_s) {
  const auto deadline = deadline_after(timeout_s);
  while (true) {
    auto decoded = buffer.next_view();
    if (!decoded.ok()) return decoded.error();
    if (decoded.value().has_value()) return WireMessage::parse(*decoded.value());
    char chunk[kRecvChunk];
    auto got = socket.recv_some(chunk, sizeof(chunk), remaining_s(deadline));
    if (!got.ok()) return got.error();
    buffer.feed(chunk, got.value());
  }
}

// --- server -----------------------------------------------------------------

FrameServer::FrameServer(Handler handler, double io_timeout_s)
    : handler_(std::move(handler)), io_timeout_s_(io_timeout_s) {}

FrameServer::~FrameServer() { stop(); }

Status FrameServer::start(const std::string& address, std::uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return make_error(ErrorCode::invalid_argument, "server already running");
    stopping_ = false;
  }
  auto listener = TcpListener::listen(address, port);
  if (!listener.ok()) return listener.error();
  listener_ = std::move(listener.value());
  port_ = listener_.port();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = true;
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  return {};
}

void FrameServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_ && !acceptor_.joinable()) return;
    stopping_ = true;
    // shutdown() (not close) wakes threads blocked on these sockets;
    // each fd stays owned — and is eventually closed — by its serving
    // thread, under this mutex, so no fd is ever recycled under a
    // concurrent operation.
    for (auto& conn : conns_) conn->socket.shutdown_both();
  }
  // The acceptor re-checks stopping_ after every poll, so it exits on
  // its own; joining BEFORE closing the listener keeps the listener fd
  // from being closed under the acceptor's poll().
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close_fd();
  // After the acceptor exits no new connections appear; join the rest.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conns.swap(conns_);
    running_ = false;
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

bool FrameServer::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

std::size_t FrameServer::connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return conns_.size();
}

void FrameServer::reap() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto live = std::stable_partition(conns_.begin(), conns_.end(),
                                            [](const auto& conn) { return !conn->done; });
    std::move(live, conns_.end(), std::back_inserter(finished));
    conns_.erase(live, conns_.end());
  }
  // `done` is the thread's last act, so these joins return at once.
  for (auto& conn : finished) conn->thread.join();
}

void FrameServer::accept_loop() {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    auto accepted = listener_.accept(0.25);
    reap();
    if (!accepted.ok()) {
      if (accepted.error().code == ErrorCode::timeout) continue;
      return;  // listener closed (stop()) or fatal
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    conns_.push_back(std::make_unique<Connection>());
    Connection& conn = *conns_.back();
    conn.socket = std::move(accepted.value());
    conn.thread = std::thread([this, &conn] { serve(conn); });
  }
}

TcpSocket& FrameServer::Peer::socket() {
  (void)flush();
  return socket_;
}

Status FrameServer::Peer::queue(std::string_view payload) {
  if (failed_.has_value()) return *failed_;
  append_frame(queued_, payload);
  return queued_.size() >= kMaxQueuedReplyBytes ? flush() : Status{};
}

Status FrameServer::Peer::flush() {
  if (failed_.has_value()) return *failed_;
  if (queued_.empty()) return {};
  Status sent = socket_.send_all(queued_, timeout_s_);
  queued_.clear();
  if (!sent.ok()) failed_ = sent.error();
  return sent;
}

void FrameServer::serve(Connection& conn) {
  Peer peer(conn.socket, io_timeout_s_);
  FrameBuffer& buffer = peer.buffer();
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) break;
    }
    auto payload = buffer.next_view();
    if (!payload.ok()) {
      // A malformed stream earns one diagnostic ERR, after the replies
      // queued before it, and then the connection dies: the frame
      // boundary is lost, so nothing more can be parsed.
      (void)peer.queue(error_payload(payload.error()));
      break;
    }
    if (!payload.value().has_value()) {
      // Every buffered request is answered: write the replies, then wait.
      // Closed or timed-out peers just end the session.
      if (!peer.flush().ok()) break;
      char chunk[kRecvChunk];
      auto got = conn.socket.recv_some(chunk, sizeof(chunk), io_timeout_s_);
      if (!got.ok()) break;
      buffer.feed(chunk, got.value());
      continue;
    }
    auto message = WireMessage::parse(*payload.value());
    // Frame boundaries survive a bad payload: report and keep serving.
    const std::string reply =
        message.ok() ? handler_(message.value(), peer) : error_payload(message.error());
    requests_.fetch_add(1);
    if (!peer.queue(reply).ok()) break;
  }
  (void)peer.flush();
  // Close under the mutex: stop() shutdown()s these sockets from
  // another thread, and fd_ must not change under it.
  std::lock_guard<std::mutex> lock(mutex_);
  conn.socket.close_fd();
  conn.done = true;
}

}  // namespace envnws::env::wire
