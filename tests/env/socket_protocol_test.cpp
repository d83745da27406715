// Wire-protocol robustness (env/probe_wire.hpp, env/probe_agent.hpp):
// frame decoding and message parsing must turn EVERY malformed input —
// truncated frames, oversized or junk length prefixes, wrong magic,
// non-numeric fields — into an error Result, never an exception, hang
// or out-of-bounds access (the CI sanitizer job runs this suite under
// ASan+UBSan). Includes a seeded fuzz pass, live-socket checks against
// a real ProbeAgent and a scripted junk-replying server, and the
// FrameServer lifecycle both of those run on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "env/probe_agent.hpp"
#include "env/probe_wire.hpp"
#include "env/socket_probe_engine.hpp"

namespace envnws::env {
namespace {

using wire::AgentRoster;
using wire::FrameBuffer;
using wire::WireMessage;

bool no_net() {
  const char* flag = std::getenv("ENVNWS_TEST_NO_NET");
  return flag != nullptr && std::string(flag) == "1";
}

#define SKIP_WITHOUT_NET()                                     \
  do {                                                         \
    if (no_net()) GTEST_SKIP() << "ENVNWS_TEST_NO_NET=1 set";  \
  } while (0)

// --- frame decoding ---------------------------------------------------------

TEST(FrameCodec, RoundTripsPayloads) {
  for (const std::string payload :
       {std::string(""), std::string("HELLO name=h0"), std::string(1024, 'x')}) {
    FrameBuffer buffer;
    buffer.feed(wire::encode_frame(payload));
    auto decoded = buffer.next_view();
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(decoded.value().has_value());
    EXPECT_EQ(*decoded.value(), payload);
    // Nothing left over.
    auto empty = buffer.next_view();
    ASSERT_TRUE(empty.ok());
    EXPECT_FALSE(empty.value().has_value());
  }
}

TEST(FrameCodec, ReassemblesFramesSplitAcrossFeeds) {
  const std::string frame = wire::encode_frame("PING seq=7");
  FrameBuffer buffer;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto partial = buffer.next_view();
    ASSERT_TRUE(partial.ok());
    EXPECT_FALSE(partial.value().has_value()) << "frame completed early at byte " << i;
    buffer.feed(frame.substr(i, 1));
  }
  auto decoded = buffer.next_view();
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded.value().has_value());
  EXPECT_EQ(*decoded.value(), "PING seq=7");
}

TEST(FrameCodec, DecodesBackToBackFrames) {
  FrameBuffer buffer;
  buffer.feed(wire::encode_frame("A t=1") + wire::encode_frame("B t=2"));
  auto first = buffer.next_view();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().has_value());
  EXPECT_EQ(*first.value(), "A t=1");
  auto second = buffer.next_view();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().has_value());
  EXPECT_EQ(*second.value(), "B t=2");
}

TEST(FrameCodec, RejectsMalformedHeaders) {
  const char* malformed[] = {
      "EVIL 12\npayload-bytes",           // wrong magic
      "ENVPX12\n",                        // magic must include the space
      "ENVP 12x\nsome-payload-here",      // junk length
      "ENVP -5\n",                        // negative length (no wraparound)
      "ENVP 99999999999999999999\n",      // overflowing length token
      "ENVP 999999999\n",                 // oversized payload claim
      "ENVP \n",                          // empty length
      "ENVP 3 3\n",                       // embedded space in length
  };
  for (const char* input : malformed) {
    FrameBuffer buffer;
    buffer.feed(std::string(input));
    auto decoded = buffer.next_view();
    ASSERT_FALSE(decoded.ok()) << input;
    EXPECT_EQ(decoded.error().code, ErrorCode::protocol) << input;
    // The stream stays poisoned: feeding more never "recovers" it.
    buffer.feed(wire::encode_frame("HELLO name=h0"));
    auto still = buffer.next_view();
    ASSERT_FALSE(still.ok()) << input;
  }
}

TEST(FrameCodec, RejectsUnterminatedHeader) {
  FrameBuffer buffer;
  buffer.feed(std::string("ENVP 11111111111111111111111111"));  // no newline, too long
  auto decoded = buffer.next_view();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::protocol);
}

TEST(FrameCodec, TruncatedPayloadJustWaits) {
  FrameBuffer buffer;
  buffer.feed(std::string("ENVP 10\nabc"));  // 3 of 10 payload bytes
  auto decoded = buffer.next_view();
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().has_value());  // need more, not an error
  buffer.feed(std::string("defghij"));
  auto complete = buffer.next_view();
  ASSERT_TRUE(complete.ok());
  ASSERT_TRUE(complete.value().has_value());
  EXPECT_EQ(*complete.value(), "abcdefghij");
}

// --- message parsing --------------------------------------------------------

TEST(WireMessages, SerializeParseRoundTripsEscapedValues) {
  WireMessage message("HELLO-OK");
  message.add("fqdn", "h0.cri2000.ens-lyon.fr");
  message.add("msg", "spaces, commas, = signs and 100% percent\nnewlines");
  message.add_f64("rate", 1.25e8);
  message.add_u64("bytes", 1048576);
  auto parsed = WireMessage::parse(message.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().type, "HELLO-OK");
  EXPECT_EQ(parsed.value().get("fqdn"), "h0.cri2000.ens-lyon.fr");
  EXPECT_EQ(parsed.value().get("msg"), "spaces, commas, = signs and 100% percent\nnewlines");
  ASSERT_TRUE(parsed.value().f64("rate").ok());
  EXPECT_DOUBLE_EQ(parsed.value().f64("rate").value(), 1.25e8);
  ASSERT_TRUE(parsed.value().u64("bytes").ok());
  EXPECT_EQ(parsed.value().u64("bytes").value(), 1048576u);
}

TEST(WireMessages, RejectsMalformedPayloads) {
  const char* malformed[] = {
      "",                     // empty payload
      " HELLO",               // leading separator
      "hello name=h0",        // lower-case type
      "HELLO name",           // field without '='
      "HELLO =value",         // empty key
      "HELLO  name=h0",       // empty token from double space
      "HELLO name=h%ZZ",      // bad percent escape
      "HELLO name=h%2",       // truncated percent escape
  };
  for (const char* payload : malformed) {
    auto parsed = WireMessage::parse(payload);
    ASSERT_FALSE(parsed.ok()) << "'" << payload << "'";
    EXPECT_EQ(parsed.error().code, ErrorCode::protocol) << payload;
  }
}

TEST(WireMessages, NumericAccessorsRejectJunkWithoutThrowing) {
  auto parsed = WireMessage::parse(
      "BWXFER-OK bps=banana seconds=-1e-3 bytes=-1 big=99999999999999999999 ok=2.5");
  ASSERT_TRUE(parsed.ok());
  const WireMessage& message = parsed.value();
  EXPECT_FALSE(message.f64("bps").ok());           // junk double
  EXPECT_FALSE(message.u64("bytes").ok());         // "-1" must not wrap to 2^64-1
  EXPECT_FALSE(message.u64("big").ok());           // out of range
  EXPECT_FALSE(message.f64("absent").ok());        // missing field
  EXPECT_TRUE(message.f64("seconds").ok());        // valid (range checks are the caller's)
  ASSERT_TRUE(message.f64("ok").ok());
  EXPECT_DOUBLE_EQ(message.f64("ok").value(), 2.5);
}

TEST(WireMessages, ErrFramesCarryStructuredErrors) {
  const Error original = make_error(ErrorCode::timeout, "peer 127.0.0.1:9: recv timed out");
  auto parsed = WireMessage::parse(wire::error_payload(original));
  ASSERT_TRUE(parsed.ok());
  Error decoded;
  ASSERT_TRUE(wire::is_error(parsed.value(), decoded));
  EXPECT_EQ(decoded.code, ErrorCode::timeout);
  EXPECT_EQ(decoded.message, original.message);
  // Unknown code strings degrade to protocol instead of crashing.
  auto unknown = WireMessage::parse("ERR code=gremlins msg=what");
  ASSERT_TRUE(unknown.ok());
  ASSERT_TRUE(wire::is_error(unknown.value(), decoded));
  EXPECT_EQ(decoded.code, ErrorCode::protocol);
}

// --- seeded fuzz ------------------------------------------------------------

// Random byte soup and mutated valid frames: the decoder and message
// parser must classify every input as frame / need-more / error without
// crashing (ASan+UBSan in CI make memory errors loud).
TEST(WireFuzz, DecoderAndParserSurviveSeededGarbage) {
  std::mt19937 rng(0xE0F5EED);
  const std::string valid = wire::encode_frame("BWXFER to=127.0.0.1 port=4000 bytes=65536");
  for (int round = 0; round < 2000; ++round) {
    std::string input;
    const int shape = static_cast<int>(rng() % 3);
    if (shape == 0) {  // raw garbage
      const std::size_t length = rng() % 64;
      for (std::size_t i = 0; i < length; ++i) {
        input.push_back(static_cast<char>(rng() % 256));
      }
    } else if (shape == 1) {  // truncated / extended valid frame
      input = valid.substr(0, rng() % (valid.size() + 1));
      const std::size_t extra = rng() % 8;
      for (std::size_t i = 0; i < extra; ++i) {
        input.push_back(static_cast<char>(rng() % 256));
      }
    } else {  // byte-flipped valid frame
      input = valid;
      const std::size_t flips = 1 + rng() % 4;
      for (std::size_t i = 0; i < flips && !input.empty(); ++i) {
        input[rng() % input.size()] = static_cast<char>(rng() % 256);
      }
    }
    FrameBuffer buffer;
    // Feed in random-sized pieces to exercise resumption points.
    std::size_t fed = 0;
    while (fed < input.size()) {
      const std::size_t piece = 1 + rng() % 16;
      buffer.feed(input.substr(fed, piece));
      fed += std::min(piece, input.size() - fed);
      auto decoded = buffer.next_view();
      if (!decoded.ok()) break;  // poisoned: classified as garbage, done
      if (decoded.value().has_value()) {
        // Whatever decoded must also parse or error cleanly.
        (void)WireMessage::parse(*decoded.value());
      }
    }
  }
}

// --- live agent robustness --------------------------------------------------

TEST(ProbeAgentProtocol, RepliesErrToGarbageWithoutDying) {
  SKIP_WITHOUT_NET();
  ProbeAgentConfig config;
  config.name = "h0";
  config.fqdn = "h0.lan";
  config.io_timeout_s = 5.0;
  ProbeAgent agent(config);
  ASSERT_TRUE(agent.start().ok());

  // Parseable frame, junk message: ERR reply, connection stays usable.
  {
    auto socket = wire::TcpSocket::dial("127.0.0.1", agent.port(), 2.0);
    ASSERT_TRUE(socket.ok());
    wire::FrameBuffer buffer;
    ASSERT_TRUE(wire::send_frame(socket.value(), "BOGUS key=value", 2.0).ok());
    auto reply = wire::recv_message(socket.value(), buffer, 2.0);
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    Error error;
    EXPECT_TRUE(wire::is_error(reply.value(), error));
    EXPECT_EQ(error.code, ErrorCode::protocol);
    // Same connection still answers real requests.
    ASSERT_TRUE(wire::send_frame(socket.value(), "PING seq=1", 2.0).ok());
    auto pong = wire::recv_message(socket.value(), buffer, 2.0);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().type, "PONG");
  }
  // Unframeable bytes: one diagnostic ERR, then the agent hangs up.
  {
    auto socket = wire::TcpSocket::dial("127.0.0.1", agent.port(), 2.0);
    ASSERT_TRUE(socket.ok());
    wire::FrameBuffer buffer;
    ASSERT_TRUE(socket.value().send_all("total garbage, not a frame\n", 2.0).ok());
    auto reply = wire::recv_message(socket.value(), buffer, 2.0);
    if (reply.ok()) {
      Error error;
      EXPECT_TRUE(wire::is_error(reply.value(), error));
      auto eof = wire::recv_message(socket.value(), buffer, 2.0);
      EXPECT_FALSE(eof.ok());
    }
  }
  // The agent survived both abuses.
  {
    auto socket = wire::TcpSocket::dial("127.0.0.1", agent.port(), 2.0);
    ASSERT_TRUE(socket.ok());
    wire::FrameBuffer buffer;
    ASSERT_TRUE(wire::send_frame(socket.value(), "HELLO name=h0", 2.0).ok());
    auto reply = wire::recv_message(socket.value(), buffer, 2.0);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, "HELLO-OK");
    EXPECT_EQ(reply.value().get("fqdn"), "h0.lan");
  }
  agent.stop();
}

TEST(ProbeAgentProtocol, RejectsOutOfRangeBwxferFields) {
  SKIP_WITHOUT_NET();
  ProbeAgentConfig config;
  config.name = "h0";
  config.io_timeout_s = 5.0;
  ProbeAgent agent(config);
  ASSERT_TRUE(agent.start().ok());
  auto socket = wire::TcpSocket::dial("127.0.0.1", agent.port(), 2.0);
  ASSERT_TRUE(socket.ok());
  wire::FrameBuffer buffer;
  const char* bad_requests[] = {
      "BWXFER port=4000 bytes=1024",                        // missing 'to'
      "BWXFER to=127.0.0.1 port=0 bytes=1024",              // port 0
      "BWXFER to=127.0.0.1 port=99999 bytes=1024",          // port range
      "BWXFER to=127.0.0.1 port=4000 bytes=0",              // empty transfer
      "BWXFER to=127.0.0.1 port=4000 bytes=-1",             // negative bytes
      "BWXFER to=127.0.0.1 port=4000 bytes=99999999999999", // over bulk cap
      "BWXFER to=127.0.0.1 port=4000 bytes=1024 streams=0", // streams range
      "BULK bytes=banana",                                  // junk numeric
  };
  for (const char* request : bad_requests) {
    ASSERT_TRUE(wire::send_frame(socket.value(), request, 2.0).ok()) << request;
    auto reply = wire::recv_message(socket.value(), buffer, 2.0);
    ASSERT_TRUE(reply.ok()) << request;
    Error error;
    EXPECT_TRUE(wire::is_error(reply.value(), error)) << request;
    EXPECT_EQ(error.code, ErrorCode::protocol) << request;
  }
  agent.stop();
}

// A scripted server speaking syntactically valid frames with junk
// CONTENT: the engine must classify every reply as a protocol error.
// Each request, on whichever connection, takes the next canned reply.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::vector<std::string> reply_payloads)
      : replies_(std::move(reply_payloads)),
        server_([this](const WireMessage&, wire::FrameServer::Peer&) {
          const std::size_t index = next_.fetch_add(1);
          return index < replies_.size()
                     ? replies_[index]
                     : wire::error_payload(make_error(ErrorCode::internal, "script exhausted"));
        }, 5.0) {}

  bool start() { return server_.start("127.0.0.1", 0).ok(); }
  void stop() { server_.stop(); }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  std::vector<std::string> replies_;
  std::atomic<std::size_t> next_{0};
  wire::FrameServer server_;
};

TEST(SocketEngineProtocol, JunkAgentRepliesBecomeProtocolErrors) {
  SKIP_WITHOUT_NET();
  ScriptedServer server({
      "WAT fqdn=x",                                        // wrong reply type to HELLO
      "HELLO-OK fqdn=h0 ip=1.2.3.4 props=broken-token",    // bad props grammar
      "BWXFER-OK bps=banana seconds=0.5 bytes=65536",      // junk numeric
      "BWXFER-OK bps=-1 seconds=0.5 bytes=65536",          // non-positive measurement
  });
  ASSERT_TRUE(server.start());
  AgentRoster roster;
  roster.agents.push_back(wire::AgentEndpoint{"h0", "127.0.0.1", server.port()});
  roster.agents.push_back(wire::AgentEndpoint{"h1", "127.0.0.1", server.port()});
  MapperOptions options;
  options.stabilization_gap_s = 0.0;
  options.probe_bytes = 65536;
  SocketEngineOptions socket_options;
  socket_options.connect_timeout_s = 2.0;
  socket_options.frame_timeout_s = 2.0;
  socket_options.transfer_timeout_s = 2.0;
  SocketProbeEngine engine(roster, options, socket_options);

  auto wrong_type = engine.lookup("h0");
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_EQ(wrong_type.error().code, ErrorCode::protocol);

  auto bad_props = engine.lookup("h0");
  ASSERT_FALSE(bad_props.ok());
  EXPECT_EQ(bad_props.error().code, ErrorCode::protocol);

  auto junk_bps = engine.bandwidth("h0", "h1");
  ASSERT_FALSE(junk_bps.ok());
  EXPECT_EQ(junk_bps.error().code, ErrorCode::protocol);

  auto negative = engine.bandwidth("h0", "h1");
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.error().code, ErrorCode::protocol);
  server.stop();
}

// --- frame server -----------------------------------------------------------

/// Echo server: replies `ECHO-OK` carrying the request's type and seq.
wire::FrameServer::Handler echo_handler() {
  return [](const WireMessage& request, wire::FrameServer::Peer&) {
    return WireMessage("ECHO-OK").add("type", request.type).add("seq", request.get("seq"))
        .serialize();
  };
}

Result<WireMessage> round_trip(wire::TcpSocket& socket, FrameBuffer& buffer,
                               const std::string& payload) {
  if (auto sent = wire::send_frame(socket, payload, 2.0); !sent.ok()) return sent.error();
  return wire::recv_message(socket, buffer, 2.0);
}

TEST(FrameServer, ReapsFinishedConnections) {
  SKIP_WITHOUT_NET();
  wire::FrameServer server(echo_handler(), 5.0);
  ASSERT_TRUE(server.start("127.0.0.1", 0).ok());
  for (int i = 0; i < 200; ++i) {
    auto socket = wire::TcpSocket::dial("127.0.0.1", server.port(), 2.0);
    ASSERT_TRUE(socket.ok()) << i;
    FrameBuffer buffer;
    auto reply = round_trip(socket.value(), buffer, "PING seq=1");
    ASSERT_TRUE(reply.ok()) << i;
    EXPECT_EQ(reply.value().type, "ECHO-OK");
  }
  // Every client has closed; the acceptor reaps on its next wake-up.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server.connections() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.connections(), 0u);
  EXPECT_EQ(server.requests_served(), 200u);
  server.stop();
}

TEST(FrameServer, StopReturnsPromptlyWithAnIdleClientConnected) {
  SKIP_WITHOUT_NET();
  wire::FrameServer server(echo_handler(), 30.0);
  ASSERT_TRUE(server.start("127.0.0.1", 0).ok());
  auto idle = wire::TcpSocket::dial("127.0.0.1", server.port(), 2.0);
  ASSERT_TRUE(idle.ok());
  FrameBuffer buffer;
  ASSERT_TRUE(round_trip(idle.value(), buffer, "PING seq=1").ok());
  const auto begin = std::chrono::steady_clock::now();
  server.stop();
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  EXPECT_LT(took, 2.0);  // far below the 30 s idle timeout
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.connections(), 0u);
}

TEST(FrameServer, MalformedFrameGetsOneErrAndTheConnectionCloses) {
  SKIP_WITHOUT_NET();
  wire::FrameServer server(echo_handler(), 5.0);
  ASSERT_TRUE(server.start("127.0.0.1", 0).ok());
  auto socket = wire::TcpSocket::dial("127.0.0.1", server.port(), 2.0);
  ASSERT_TRUE(socket.ok());
  FrameBuffer buffer;
  ASSERT_TRUE(socket.value().send_all("EVIL 12\npayload-bytes", 2.0).ok());
  auto reply = wire::recv_message(socket.value(), buffer, 2.0);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  Error error;
  ASSERT_TRUE(wire::is_error(reply.value(), error));
  EXPECT_EQ(error.code, ErrorCode::protocol);
  auto eof = wire::recv_message(socket.value(), buffer, 2.0);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.error().code, ErrorCode::unreachable);  // closed, not timed out
  server.stop();
}

TEST(FrameServer, UnparseableMessageGetsErrAndTheConnectionKeepsServing) {
  SKIP_WITHOUT_NET();
  wire::FrameServer server(echo_handler(), 5.0);
  ASSERT_TRUE(server.start("127.0.0.1", 0).ok());
  auto socket = wire::TcpSocket::dial("127.0.0.1", server.port(), 2.0);
  ASSERT_TRUE(socket.ok());
  FrameBuffer buffer;
  auto reply = round_trip(socket.value(), buffer, "lower-case field");
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  Error error;
  ASSERT_TRUE(wire::is_error(reply.value(), error));
  EXPECT_EQ(error.code, ErrorCode::protocol);
  auto echo = round_trip(socket.value(), buffer, "PING seq=2");
  ASSERT_TRUE(echo.ok()) << echo.error().to_string();
  EXPECT_EQ(echo.value().type, "ECHO-OK");
  EXPECT_EQ(echo.value().get("type"), "PING");
  server.stop();
}

TEST(FrameServer, CountsEveryRequest) {
  SKIP_WITHOUT_NET();
  wire::FrameServer server(echo_handler(), 5.0);
  ASSERT_TRUE(server.start("127.0.0.1", 0).ok());
  std::uint64_t sent = 0;
  for (int connection = 0; connection < 3; ++connection) {
    auto socket = wire::TcpSocket::dial("127.0.0.1", server.port(), 2.0);
    ASSERT_TRUE(socket.ok());
    FrameBuffer buffer;
    for (int i = 0; i < 7; ++i) {
      // Unparseable requests are answered, so they count too.
      ASSERT_TRUE(round_trip(socket.value(), buffer, i == 3 ? "bad" : "PING seq=1").ok());
      ++sent;
    }
  }
  EXPECT_EQ(server.requests_served(), sent);
  server.stop();
}

// --- pipelining -------------------------------------------------------------
//
// The server answers every request already in its buffer before it
// writes, so these clients send many frames at once (or one byte at a
// time) and check that each request still gets exactly one reply, in
// request order.

/// Expect an ECHO-OK for request `seq` of type `type`.
void expect_echo(const Result<WireMessage>& reply, const std::string& type, int seq) {
  ASSERT_TRUE(reply.ok()) << "seq " << seq << ": " << reply.error().to_string();
  EXPECT_EQ(reply.value().type, "ECHO-OK") << "seq " << seq;
  EXPECT_EQ(reply.value().get("type"), type) << "seq " << seq;
  EXPECT_EQ(reply.value().get("seq"), std::to_string(seq));
}

TEST(FrameServer, AnswersSixtyFourPipelinedFramesInOrder) {
  SKIP_WITHOUT_NET();
  wire::FrameServer server(echo_handler(), 5.0);
  ASSERT_TRUE(server.start("127.0.0.1", 0).ok());
  auto socket = wire::TcpSocket::dial("127.0.0.1", server.port(), 2.0);
  ASSERT_TRUE(socket.ok());
  const char* types[] = {"PING", "HELLO", "STATS", "QUERY"};
  constexpr int kFrames = 64;
  constexpr int kUnparseable = 37;
  std::string frames;
  for (int i = 0; i < kFrames; ++i) {
    frames += wire::encode_frame(i == kUnparseable ? std::string("lower-case seq=37")
                                                   : std::string(types[i % 4]) +
                                                         " seq=" + std::to_string(i));
  }
  ASSERT_TRUE(socket.value().send_all(frames, 2.0).ok());
  FrameBuffer buffer;
  for (int i = 0; i < kFrames; ++i) {
    auto reply = wire::recv_message(socket.value(), buffer, 2.0);
    if (i == kUnparseable) {
      ASSERT_TRUE(reply.ok()) << reply.error().to_string();
      Error error;
      EXPECT_TRUE(wire::is_error(reply.value(), error));
      EXPECT_EQ(error.code, ErrorCode::protocol);
    } else {
      expect_echo(reply, types[i % 4], i);
    }
  }
  EXPECT_EQ(buffer.buffered(), 0u);  // exactly one reply per request
  EXPECT_EQ(server.requests_served(), static_cast<std::uint64_t>(kFrames));
  server.stop();
}

TEST(FrameServer, AByteAtATimeClientGetsEachReplyWithoutSendingMore) {
  SKIP_WITHOUT_NET();
  wire::FrameServer server(echo_handler(), 5.0);
  ASSERT_TRUE(server.start("127.0.0.1", 0).ok());
  auto socket = wire::TcpSocket::dial("127.0.0.1", server.port(), 2.0);
  ASSERT_TRUE(socket.ok());
  FrameBuffer buffer;
  for (int seq = 0; seq < 3; ++seq) {
    const std::string frame = wire::encode_frame("PING seq=" + std::to_string(seq));
    for (const char byte : frame) {
      ASSERT_TRUE(socket.value().send_all(std::string_view(&byte, 1), 2.0).ok());
    }
    // The reply comes on its own: nothing more is sent before reading it.
    expect_echo(wire::recv_message(socket.value(), buffer, 2.0), "PING", seq);
  }
  EXPECT_EQ(server.requests_served(), 3u);
  server.stop();
}

TEST(FrameServer, RepliesQueuedBeforeAMalformedHeaderPrecedeItsErr) {
  SKIP_WITHOUT_NET();
  wire::FrameServer server(echo_handler(), 5.0);
  ASSERT_TRUE(server.start("127.0.0.1", 0).ok());
  auto socket = wire::TcpSocket::dial("127.0.0.1", server.port(), 2.0);
  ASSERT_TRUE(socket.ok());
  std::string stream;
  for (int seq = 0; seq < 3; ++seq) stream += wire::encode_frame("PING seq=" + std::to_string(seq));
  stream += "ENVP 12x\nsome-payload";
  ASSERT_TRUE(socket.value().send_all(stream, 2.0).ok());
  FrameBuffer buffer;
  for (int seq = 0; seq < 3; ++seq) {
    expect_echo(wire::recv_message(socket.value(), buffer, 2.0), "PING", seq);
  }
  auto err = wire::recv_message(socket.value(), buffer, 2.0);
  ASSERT_TRUE(err.ok()) << err.error().to_string();
  Error error;
  ASSERT_TRUE(wire::is_error(err.value(), error));
  EXPECT_EQ(error.code, ErrorCode::protocol);
  auto eof = wire::recv_message(socket.value(), buffer, 2.0);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.error().code, ErrorCode::unreachable);  // closed, not timed out
  EXPECT_EQ(server.requests_served(), 3u);
  server.stop();
}

TEST(ProbeAgentProtocol, PingAndBulkInOneWriteGetPongThenBulkOk) {
  SKIP_WITHOUT_NET();
  ProbeAgentConfig config;
  config.name = "h0";
  config.io_timeout_s = 5.0;
  ProbeAgent agent(config);
  ASSERT_TRUE(agent.start().ok());
  const auto expect_bulk_ok = [](const Result<WireMessage>& reply, std::uint64_t bytes) {
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    ASSERT_EQ(reply.value().type, "BULK-OK");
    ASSERT_TRUE(reply.value().u64("bytes").ok());
    EXPECT_EQ(reply.value().u64("bytes").value(), bytes);
    ASSERT_TRUE(reply.value().f64("seconds").ok());
    EXPECT_GT(reply.value().f64("seconds").value(), 0.0);
  };
  // Header and payload in one write: a small payload lands in the frame
  // buffer with the header, a large one mostly stays on the socket.
  for (const std::uint64_t bytes : {std::uint64_t(1000), std::uint64_t(1) << 20}) {
    auto socket = wire::TcpSocket::dial("127.0.0.1", agent.port(), 2.0);
    ASSERT_TRUE(socket.ok());
    std::string stream = wire::encode_frame("PING seq=5") +
                         wire::encode_frame("BULK bytes=" + std::to_string(bytes));
    stream.append(static_cast<std::size_t>(bytes), 'x');
    ASSERT_TRUE(socket.value().send_all(stream, 5.0).ok());
    FrameBuffer buffer;
    auto pong = wire::recv_message(socket.value(), buffer, 5.0);
    ASSERT_TRUE(pong.ok()) << pong.error().to_string();
    EXPECT_EQ(pong.value().type, "PONG");
    EXPECT_EQ(pong.value().get("seq"), "5");
    expect_bulk_ok(wire::recv_message(socket.value(), buffer, 5.0), bytes);
  }
  // The PONG is written before the agent waits for the rest of the
  // payload: this client sends the second half only once it has it.
  {
    auto socket = wire::TcpSocket::dial("127.0.0.1", agent.port(), 2.0);
    ASSERT_TRUE(socket.ok());
    std::string first_half = wire::encode_frame("PING seq=6") +
                             wire::encode_frame("BULK bytes=2000");
    first_half.append(1000, 'x');
    ASSERT_TRUE(socket.value().send_all(first_half, 2.0).ok());
    FrameBuffer buffer;
    auto pong = wire::recv_message(socket.value(), buffer, 2.0);
    ASSERT_TRUE(pong.ok()) << pong.error().to_string();
    EXPECT_EQ(pong.value().type, "PONG");
    ASSERT_TRUE(socket.value().send_all(std::string(1000, 'x'), 2.0).ok());
    expect_bulk_ok(wire::recv_message(socket.value(), buffer, 2.0), 2000);
  }
  agent.stop();
}

}  // namespace
}  // namespace envnws::env
