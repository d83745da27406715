#include "env/trace_probe_engine.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/codec.hpp"
#include "common/strings.hpp"

namespace envnws::env {

namespace {

// Trace tokens are whitespace-separated, so strings are percent-escaped
// (common/codec.hpp). The empty string — legal for e.g. a failed reverse
// DNS fqdn — encodes as the otherwise-unproducible token "%e".
constexpr const char* kEmptyToken = "%e";

/// Where numeric-field errors say the bad value came from.
constexpr std::string_view kTrace = "probe trace";

std::string escape(const std::string& text) {
  return text.empty() ? std::string(kEmptyToken) : codec::escape(text);
}

Result<std::string> unescape(const std::string& token) {
  if (token == kEmptyToken) return std::string();
  return codec::unescape(token);
}

char tag_of(TraceRecord::Kind kind) {
  switch (kind) {
    case TraceRecord::Kind::lookup: return 'L';
    case TraceRecord::Kind::traceroute: return 'T';
    case TraceRecord::Kind::bandwidth: return 'B';
    case TraceRecord::Kind::concurrent: return 'C';
  }
  return '?';
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

std::string serialize_record(const TraceRecord& record) {
  std::ostringstream out;
  out << tag_of(record.kind);
  if (record.kind == TraceRecord::Kind::concurrent) out << ' ' << record.entries.size();
  for (const auto& entry : record.entries) {
    out << ' ' << escape(entry.from);
    if (record.kind != TraceRecord::Kind::lookup) out << ' ' << escape(entry.to);
    if (!entry.ok) {
      out << " err " << envnws::to_string(entry.error.code) << ' ' << escape(entry.error.message);
      continue;
    }
    out << " ok";
    switch (record.kind) {
      case TraceRecord::Kind::lookup:
        out << ' ' << escape(entry.identity.fqdn) << ' ' << escape(entry.identity.ip);
        for (const auto& [key, value] : entry.identity.properties) {
          out << ' ' << escape(key) << '=' << escape(value);
        }
        break;
      case TraceRecord::Kind::traceroute:
        for (const auto& hop : entry.hops) {
          out << ' ' << escape(hop.ip) << '|' << escape(hop.name) << '|' << (hop.responded ? 1 : 0);
        }
        break;
      case TraceRecord::Kind::bandwidth:
      case TraceRecord::Kind::concurrent:
        out << ' ' << codec::format_full(entry.bandwidth_bps);
        break;
    }
  }
  out << "\nS " << record.stats_after.experiments << ' ' << record.stats_after.bytes_sent << ' '
      << codec::format_full(record.stats_after.busy_time_s) << '\n';
  return out.str();
}

/// Front-to-back reader over the tokens of one record line.
class RecordReader {
 public:
  RecordReader(const std::vector<std::string>& tokens, TraceRecord::Kind kind)
      : tokens_(tokens), kind_(kind) {}

  [[nodiscard]] bool done() const { return at_ == tokens_.size(); }
  Result<std::string> raw() {
    if (done()) return malformed("truncated");
    return tokens_[at_++];
  }
  Result<std::string> text() {
    auto token = raw();
    if (!token.ok()) return token;
    return unescape(token.value());
  }
  [[nodiscard]] Error malformed(const std::string& what) const {
    return make_error(ErrorCode::protocol,
                      what + " " + env::to_string(kind_) + " trace record");
  }

  /// The outcome every record kind shares: `ok` (followed by `<bps>` for
  /// a transfer) or `err <code> <message>`.
  Status outcome(TraceRecord::Entry& entry) {
    auto verdict = raw();
    if (!verdict.ok()) return verdict.error();
    if (verdict.value() == "err") {
      auto code_text = raw();
      if (!code_text.ok()) return code_text.error();
      const auto code = error_code_from_string(code_text.value());
      if (!code.has_value()) {
        return make_error(ErrorCode::protocol,
                          "unknown error code '" + code_text.value() + "' in probe trace");
      }
      auto message = text();
      if (!message.ok()) return message.error();
      entry.ok = false;
      entry.error = Error{*code, std::move(message.value())};
      return {};
    }
    if (verdict.value() != "ok") {
      return make_error(ErrorCode::protocol, "expected 'ok' or 'err' in " +
                                                 std::string(env::to_string(kind_)) +
                                                 " trace record, got '" + verdict.value() + "'");
    }
    if (kind_ == TraceRecord::Kind::bandwidth || kind_ == TraceRecord::Kind::concurrent) {
      auto bps = raw();
      if (!bps.ok()) return bps.error();
      auto value = codec::numeric_field<double>(bps.value(), "bandwidth", kTrace);
      if (!value.ok()) return value.error();
      entry.bandwidth_bps = value.value();
    }
    return {};
  }

 private:
  const std::vector<std::string>& tokens_;
  TraceRecord::Kind kind_;
  std::size_t at_ = 1;  ///< past the tag
};

/// The identity after a lookup's `ok`: fqdn, ip, then key=value
/// properties to the end of the line.
Status read_identity(RecordReader& in, HostIdentity& identity) {
  auto fqdn = in.text();
  if (!fqdn.ok()) return fqdn.error();
  auto ip = in.text();
  if (!ip.ok()) return ip.error();
  identity.fqdn = std::move(fqdn.value());
  identity.ip = std::move(ip.value());
  while (!in.done()) {
    const std::string token = in.raw().value();
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      return make_error(ErrorCode::protocol,
                        "bad property token '" + token + "' in lookup trace record");
    }
    auto key = unescape(token.substr(0, eq));
    auto value = unescape(token.substr(eq + 1));
    if (!key.ok()) return key.error();
    if (!value.ok()) return value.error();
    identity.properties[key.value()] = value.value();
  }
  return {};
}

/// The hops after a traceroute's `ok`, `ip|name|responded` to the end of
/// the line.
Status read_hops(RecordReader& in, std::vector<TraceHop>& hops) {
  while (!in.done()) {
    const std::string token = in.raw().value();
    const auto fields = strings::split(token, '|');
    if (fields.size() != 3 || (fields[2] != "0" && fields[2] != "1")) {
      return make_error(ErrorCode::protocol,
                        "bad hop token '" + token + "' in traceroute trace record");
    }
    auto ip = unescape(fields[0]);
    auto name = unescape(fields[1]);
    if (!ip.ok()) return ip.error();
    if (!name.ok()) return name.error();
    hops.push_back(TraceHop{std::move(ip.value()), std::move(name.value()), fields[2] == "1"});
  }
  return {};
}

/// Parse one L/T/B/C line into a record (without its stats, which arrive
/// on the following S line).
Result<TraceRecord> parse_record_line(const std::vector<std::string>& tokens) {
  TraceRecord record;
  const std::string& tag = tokens.front();
  bool known = false;
  for (const auto kind : {TraceRecord::Kind::lookup, TraceRecord::Kind::traceroute,
                          TraceRecord::Kind::bandwidth, TraceRecord::Kind::concurrent}) {
    if (tag.size() == 1 && tag[0] == tag_of(kind)) {
      record.kind = kind;
      known = true;
    }
  }
  if (!known) {
    return make_error(ErrorCode::protocol, "unknown probe trace record tag '" + tag + "'");
  }
  RecordReader in(tokens, record.kind);
  std::uint64_t count = 1;
  if (record.kind == TraceRecord::Kind::concurrent) {
    auto count_text = in.raw();
    if (!count_text.ok()) return count_text.error();
    auto parsed = codec::numeric_field<std::uint64_t>(count_text.value(), "batch size", kTrace);
    if (!parsed.ok()) return parsed.error();
    count = parsed.value();
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord::Entry entry;
    auto from = in.text();
    if (!from.ok()) return from.error();
    entry.from = std::move(from.value());
    if (record.kind != TraceRecord::Kind::lookup) {
      auto to = in.text();
      if (!to.ok()) return to.error();
      entry.to = std::move(to.value());
    }
    if (auto status = in.outcome(entry); !status.ok()) return status.error();
    if (entry.ok && record.kind == TraceRecord::Kind::lookup) {
      if (auto status = read_identity(in, entry.identity); !status.ok()) return status.error();
    }
    if (entry.ok && record.kind == TraceRecord::Kind::traceroute) {
      if (auto status = read_hops(in, entry.hops); !status.ok()) return status.error();
    }
    record.entries.push_back(std::move(entry));
  }
  if (!in.done()) return in.malformed("trailing tokens in");
  return record;
}

}  // namespace

const char* to_string(TraceRecord::Kind kind) {
  switch (kind) {
    case TraceRecord::Kind::lookup: return "lookup";
    case TraceRecord::Kind::traceroute: return "traceroute";
    case TraceRecord::Kind::bandwidth: return "bandwidth";
    case TraceRecord::Kind::concurrent: return "concurrent";
  }
  return "unknown";
}

std::string TraceRecord::describe() const {
  std::ostringstream out;
  out << env::to_string(kind);
  if (kind == Kind::concurrent) out << '[' << entries.size() << ']';
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << (i == 0 ? " " : ", ") << entries[i].from;
    if (kind != Kind::lookup) out << " -> " << entries[i].to;
  }
  return out.str();
}

std::string zone_trace_path(const std::string& path, std::size_t zone_index) {
  return path + ".zone" + std::to_string(zone_index);
}

Result<ProbeTrace> ProbeTrace::parse(const std::string& text, std::string source) {
  ProbeTrace trace;
  trace.source = std::move(source);
  std::optional<TraceRecord> pending;
  bool saw_header = false;
  for (const auto& raw_line : strings::split(text, '\n')) {
    const std::string line = strings::trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != "ENVTRACE " + std::to_string(kFormatVersion)) {
        return make_error(ErrorCode::protocol,
                          "'" + trace.source + "' is not a version-" +
                              std::to_string(kFormatVersion) + " ENVTRACE document");
      }
      saw_header = true;
      continue;
    }
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens.front() == "S") {
      if (!pending.has_value()) {
        return make_error(ErrorCode::protocol,
                          "'" + trace.source + "': stats line without a preceding record");
      }
      if (tokens.size() != 4) {
        return make_error(ErrorCode::protocol, "'" + trace.source + "': malformed stats line");
      }
      auto experiments = codec::numeric_field<std::uint64_t>(tokens[1], "experiments", kTrace);
      auto bytes = codec::numeric_field<std::int64_t>(tokens[2], "bytes-sent", kTrace);
      auto busy = codec::numeric_field<double>(tokens[3], "busy-time", kTrace);
      if (!experiments.ok()) return experiments.error();
      if (!bytes.ok()) return bytes.error();
      if (!busy.ok()) return busy.error();
      pending->stats_after =
          ProbeStats{experiments.value(), bytes.value(), busy.value()};
      trace.records.push_back(std::move(*pending));
      pending.reset();
      continue;
    }
    if (pending.has_value()) {
      return make_error(ErrorCode::protocol,
                        "'" + trace.source + "': record without a stats line (experiment " +
                            std::to_string(trace.records.size()) + ")");
    }
    auto record = parse_record_line(tokens);
    if (!record.ok()) {
      return make_error(record.error().code,
                        "'" + trace.source + "': " + record.error().message);
    }
    pending = std::move(record.value());
  }
  if (!saw_header) {
    return make_error(ErrorCode::protocol,
                      "'" + trace.source + "' is not a version-" + std::to_string(kFormatVersion) +
                          " ENVTRACE document");
  }
  if (pending.has_value()) {
    return make_error(ErrorCode::protocol,
                      "'" + trace.source + "': trace ends mid-record (experiment " +
                          std::to_string(trace.records.size()) + " has no stats line)");
  }
  return trace;
}

Result<ProbeTrace> ProbeTrace::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    // Only a genuinely absent file is not_found; an existing-but-
    // unreadable one (permissions) must not be mistaken for a miss.
    std::error_code ec;
    if (std::filesystem::exists(path, ec) && !ec) {
      return make_error(ErrorCode::internal, "cannot read probe trace '" + path + "'");
    }
    return make_error(ErrorCode::not_found, "no probe trace at '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str(), path);
}

std::string ProbeTrace::to_string() const {
  std::ostringstream out;
  out << "ENVTRACE " << kFormatVersion << '\n';
  for (const auto& record : records) out << serialize_record(record);
  return out.str();
}

// --- ProbeDecorator ---------------------------------------------------------

namespace {

TraceRecord request(TraceRecord::Kind kind, const std::vector<BandwidthRequest>& endpoints) {
  TraceRecord call;
  call.kind = kind;
  call.entries.resize(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    call.entries[i].from = endpoints[i].from;
    call.entries[i].to = endpoints[i].to;
  }
  return call;
}

template <typename T>
void store(TraceRecord::Entry& entry, Result<T> result, T TraceRecord::Entry::*field) {
  if (result.ok()) {
    entry.*field = std::move(result.value());
  } else {
    entry.ok = false;
    entry.error = result.error();
  }
}

Result<double> transfer_result(const TraceRecord::Entry& entry) {
  if (!entry.ok) return entry.error;
  return entry.bandwidth_bps;
}

}  // namespace

Result<HostIdentity> ProbeDecorator::lookup(const std::string& hostname) {
  const TraceRecord done = handle(request(TraceRecord::Kind::lookup, {{hostname, {}, {}}}));
  const auto& entry = done.entries.front();
  if (!entry.ok) return entry.error;
  return entry.identity;
}

Result<std::vector<TraceHop>> ProbeDecorator::traceroute(const std::string& from,
                                                         const std::string& target) {
  const TraceRecord done = handle(request(TraceRecord::Kind::traceroute, {{from, target, {}}}));
  const auto& entry = done.entries.front();
  if (!entry.ok) return entry.error;
  return entry.hops;
}

Result<double> ProbeDecorator::bandwidth(const std::string& from, const std::string& to) {
  return transfer_result(
      handle(request(TraceRecord::Kind::bandwidth, {{from, to, {}}})).entries.front());
}

std::vector<Result<double>> ProbeDecorator::concurrent_bandwidth(
    const std::vector<BandwidthRequest>& requests) {
  const TraceRecord done = handle(request(TraceRecord::Kind::concurrent, requests));
  std::vector<Result<double>> results;
  results.reserve(done.entries.size());
  for (const auto& entry : done.entries) results.push_back(transfer_result(entry));
  return results;
}

void ProbeDecorator::forward(ProbeEngine& engine, TraceRecord& call) {
  auto& first = call.entries.front();
  switch (call.kind) {
    case TraceRecord::Kind::lookup:
      store(first, engine.lookup(first.from), &TraceRecord::Entry::identity);
      return;
    case TraceRecord::Kind::traceroute:
      store(first, engine.traceroute(first.from, first.to), &TraceRecord::Entry::hops);
      return;
    case TraceRecord::Kind::bandwidth:
      store(first, engine.bandwidth(first.from, first.to), &TraceRecord::Entry::bandwidth_bps);
      return;
    case TraceRecord::Kind::concurrent: {
      // `via` is batch-schedule bookkeeping that engines ignore when
      // measuring, so the from/to pairs are the whole request.
      std::vector<BandwidthRequest> requests;
      requests.reserve(call.entries.size());
      for (const auto& entry : call.entries) requests.push_back({entry.from, entry.to, {}});
      auto results = engine.concurrent_bandwidth(requests);
      // A misbehaving engine may return fewer results than requests:
      // those transfers fail, never become fabricated 0-bps successes.
      results.resize(call.entries.size(),
                     make_error(ErrorCode::internal,
                                "engine returned no result for this concurrent request"));
      for (std::size_t i = 0; i < call.entries.size(); ++i) {
        store(call.entries[i], std::move(results[i]), &TraceRecord::Entry::bandwidth_bps);
      }
      return;
    }
  }
}

void ProbeDecorator::fail(TraceRecord& call, const Error& error) {
  for (auto& entry : call.entries) {
    entry.ok = false;
    entry.error = error;
  }
}

// --- RecordingProbeEngine ---------------------------------------------------

RecordingProbeEngine::RecordingProbeEngine(std::unique_ptr<ProbeEngine> inner)
    : inner_(std::move(inner)) {}

Result<std::unique_ptr<RecordingProbeEngine>> RecordingProbeEngine::open(
    std::unique_ptr<ProbeEngine> inner, const std::string& path) {
  auto engine = std::make_unique<RecordingProbeEngine>(std::move(inner));
  engine->trace_.source = path;
  engine->out_.emplace(path, std::ios::trunc);
  if (!*engine->out_) {
    return make_error(ErrorCode::internal, "cannot create probe trace '" + path + "'");
  }
  *engine->out_ << "ENVTRACE " << ProbeTrace::kFormatVersion << '\n';
  engine->out_->flush();
  return engine;
}

RecordingProbeEngine& RecordingProbeEngine::set_error_handler(
    std::function<void(const Error&)> handler) {
  on_error_ = std::move(handler);
  return *this;
}

TraceRecord RecordingProbeEngine::handle(TraceRecord call) {
  forward(*inner_, call);
  call.stats_after = inner_->stats();
  if (out_.has_value() && !write_error_.has_value()) {
    *out_ << serialize_record(call);
    out_->flush();
    if (!*out_) {
      write_error_ = make_error(ErrorCode::internal,
                                "short write on probe trace '" + trace_.source + "' (experiment " +
                                    std::to_string(trace_.records.size()) + ")");
      if (on_error_) on_error_(*write_error_);
    }
  }
  trace_.records.push_back(call);
  return call;
}

ProbeStats RecordingProbeEngine::stats() const { return inner_->stats(); }

// --- TraceProbeEngine -------------------------------------------------------

TraceProbeEngine::TraceProbeEngine(ProbeTrace trace, Mode mode,
                                   std::unique_ptr<ProbeEngine> delegate)
    : trace_(std::move(trace)), mode_(mode), delegate_(std::move(delegate)) {}

TraceProbeEngine& TraceProbeEngine::set_violation_handler(
    std::function<void(const Error&)> handler) {
  on_violation_ = std::move(handler);
  return *this;
}

Error TraceProbeEngine::violate(Error error) {
  if (!violation_.has_value()) {
    violation_ = error;
    if (on_violation_) on_violation_(error);
  }
  return *violation_;  // sticky: every later experiment reports the first
}

Result<const TraceRecord*> TraceProbeEngine::take(const TraceRecord& call) {
  if (mode_ == Mode::strict && violation_.has_value()) return *violation_;
  const std::string at = "probe trace '" + trace_.source + "' ";
  if (next_ >= trace_.records.size()) {
    return make_error(ErrorCode::protocol, at + "exhausted at experiment " +
                                               std::to_string(next_) + ": " + call.describe() +
                                               " requested beyond the trace end");
  }
  const TraceRecord& record = trace_.records[next_];
  const auto same_endpoints = [](const TraceRecord::Entry& a, const TraceRecord::Entry& b) {
    return a.from == b.from && a.to == b.to;
  };
  if (record.kind != call.kind ||
      !std::equal(record.entries.begin(), record.entries.end(), call.entries.begin(),
                  call.entries.end(), same_endpoints)) {
    return make_error(ErrorCode::protocol, at + "diverged at experiment " +
                                               std::to_string(next_) + ": trace holds " +
                                               record.describe() + ", caller requested " +
                                               call.describe());
  }
  ++next_;
  replayed_stats_ = record.stats_after;
  return &record;
}

TraceRecord TraceProbeEngine::handle(TraceRecord call) {
  auto taken = take(call);
  if (taken.ok()) return *taken.value();
  if (mode_ == Mode::strict) {
    fail(call, violate(taken.error()));
  } else if (delegate_ != nullptr) {
    forward(*delegate_, call);
  } else {
    fail(call, taken.error());
  }
  return call;
}

ProbeStats TraceProbeEngine::stats() const {
  ProbeStats stats = replayed_stats_;
  if (delegate_ != nullptr) {
    // Lenient fallbacks probed live: fold the delegate's cost on top of
    // the replayed one (approximate by design; strict mode is exact).
    const ProbeStats live = delegate_->stats();
    stats.experiments += live.experiments;
    stats.bytes_sent += live.bytes_sent;
    stats.busy_time_s += live.busy_time_s;
  }
  return stats;
}

}  // namespace envnws::env
