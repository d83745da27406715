#include "env/trace_probe_engine.hpp"

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

/// "err <code> <message>" suffix shared by every record kind.
void write_error_tokens(std::ostringstream& out, const Error& error) {
  out << "err " << envnws::to_string(error.code) << ' ' << escape(error.message);
}

Status read_error_tokens(const std::vector<std::string>& tokens, std::size_t at, Error& out) {
  if (at + 1 >= tokens.size()) {
    return make_error(ErrorCode::protocol, "truncated error outcome in probe trace record");
  }
  const auto code = error_code_from_string(tokens[at]);
  if (!code.has_value()) {
    return make_error(ErrorCode::protocol, "unknown error code '" + tokens[at] + "' in probe trace");
  }
  auto message = unescape(tokens[at + 1]);
  if (!message.ok()) return message.error();
  out = Error{*code, std::move(message.value())};
  return {};
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
  switch (record.kind) {
    case TraceRecord::Kind::lookup: {
      const auto& entry = record.entries.front();
      out << "L " << escape(entry.from) << ' ';
      if (entry.ok) {
        out << "ok " << escape(entry.identity.fqdn) << ' ' << escape(entry.identity.ip);
        for (const auto& [key, value] : entry.identity.properties) {
          out << ' ' << escape(key) << '=' << escape(value);
        }
      } else {
        write_error_tokens(out, entry.error);
      }
      break;
    }
    case TraceRecord::Kind::traceroute: {
      const auto& entry = record.entries.front();
      out << "T " << escape(entry.from) << ' ' << escape(entry.to) << ' ';
      if (entry.ok) {
        out << "ok";
        for (const auto& hop : entry.hops) {
          out << ' ' << escape(hop.ip) << '|' << escape(hop.name) << '|' << (hop.responded ? 1 : 0);
        }
      } else {
        write_error_tokens(out, entry.error);
      }
      break;
    }
    case TraceRecord::Kind::bandwidth: {
      const auto& entry = record.entries.front();
      out << "B " << escape(entry.from) << ' ' << escape(entry.to) << ' ';
      if (entry.ok) {
        out << "ok " << codec::format_full(entry.bandwidth_bps);
      } else {
        write_error_tokens(out, entry.error);
      }
      break;
    }
    case TraceRecord::Kind::concurrent: {
      out << "C " << record.entries.size();
      for (const auto& entry : record.entries) {
        out << ' ' << escape(entry.from) << ' ' << escape(entry.to) << ' ';
        if (entry.ok) {
          out << "ok " << codec::format_full(entry.bandwidth_bps);
        } else {
          write_error_tokens(out, entry.error);
        }
      }
      break;
    }
  }
  out << "\nS " << record.stats_after.experiments << ' ' << record.stats_after.bytes_sent << ' '
      << codec::format_full(record.stats_after.busy_time_s) << '\n';
  return out.str();
}

/// Parse one L/T/B/C line into a record (without its stats, which arrive
/// on the following S line).
Result<TraceRecord> parse_record_line(const std::vector<std::string>& tokens) {
  TraceRecord record;
  const std::string& tag = tokens.front();
  const auto entry_outcome = [&](TraceRecord::Entry& entry, std::size_t at,
                                 std::size_t* consumed) -> Status {
    if (at >= tokens.size()) {
      return make_error(ErrorCode::protocol, "truncated probe trace record");
    }
    if (tokens[at] == "err") {
      entry.ok = false;
      if (auto status = read_error_tokens(tokens, at + 1, entry.error); !status.ok()) {
        return status;
      }
      *consumed = 3;
      return {};
    }
    if (tokens[at] != "ok") {
      return make_error(ErrorCode::protocol,
                        "expected 'ok' or 'err' in probe trace record, got '" + tokens[at] + "'");
    }
    entry.ok = true;
    *consumed = 1;
    return {};
  };

  if (tag == "L") {
    record.kind = TraceRecord::Kind::lookup;
    if (tokens.size() < 3) return make_error(ErrorCode::protocol, "truncated lookup trace record");
    TraceRecord::Entry entry;
    auto from = unescape(tokens[1]);
    if (!from.ok()) return from.error();
    entry.from = std::move(from.value());
    std::size_t consumed = 0;
    if (auto status = entry_outcome(entry, 2, &consumed); !status.ok()) return status.error();
    if (entry.ok) {
      if (tokens.size() < 5) {
        return make_error(ErrorCode::protocol, "truncated lookup trace record");
      }
      auto fqdn = unescape(tokens[3]);
      auto ip = unescape(tokens[4]);
      if (!fqdn.ok()) return fqdn.error();
      if (!ip.ok()) return ip.error();
      entry.identity.fqdn = std::move(fqdn.value());
      entry.identity.ip = std::move(ip.value());
      for (std::size_t i = 5; i < tokens.size(); ++i) {
        const auto eq = tokens[i].find('=');
        if (eq == std::string::npos) {
          return make_error(ErrorCode::protocol,
                            "bad property token '" + tokens[i] + "' in lookup trace record");
        }
        auto key = unescape(tokens[i].substr(0, eq));
        auto value = unescape(tokens[i].substr(eq + 1));
        if (!key.ok()) return key.error();
        if (!value.ok()) return value.error();
        entry.identity.properties[key.value()] = value.value();
      }
    }
    record.entries.push_back(std::move(entry));
    return record;
  }
  if (tag == "T") {
    record.kind = TraceRecord::Kind::traceroute;
    if (tokens.size() < 4) {
      return make_error(ErrorCode::protocol, "truncated traceroute trace record");
    }
    TraceRecord::Entry entry;
    auto from = unescape(tokens[1]);
    auto to = unescape(tokens[2]);
    if (!from.ok()) return from.error();
    if (!to.ok()) return to.error();
    entry.from = std::move(from.value());
    entry.to = std::move(to.value());
    std::size_t consumed = 0;
    if (auto status = entry_outcome(entry, 3, &consumed); !status.ok()) return status.error();
    if (entry.ok) {
      for (std::size_t i = 4; i < tokens.size(); ++i) {
        const auto fields = strings::split(tokens[i], '|');
        if (fields.size() != 3 || (fields[2] != "0" && fields[2] != "1")) {
          return make_error(ErrorCode::protocol,
                            "bad hop token '" + tokens[i] + "' in traceroute trace record");
        }
        auto ip = unescape(fields[0]);
        auto name = unescape(fields[1]);
        if (!ip.ok()) return ip.error();
        if (!name.ok()) return name.error();
        entry.hops.push_back(TraceHop{std::move(ip.value()), std::move(name.value()),
                                      fields[2] == "1"});
      }
    }
    record.entries.push_back(std::move(entry));
    return record;
  }
  if (tag == "B") {
    record.kind = TraceRecord::Kind::bandwidth;
    if (tokens.size() < 4) {
      return make_error(ErrorCode::protocol, "truncated bandwidth trace record");
    }
    TraceRecord::Entry entry;
    auto from = unescape(tokens[1]);
    auto to = unescape(tokens[2]);
    if (!from.ok()) return from.error();
    if (!to.ok()) return to.error();
    entry.from = std::move(from.value());
    entry.to = std::move(to.value());
    std::size_t consumed = 0;
    if (auto status = entry_outcome(entry, 3, &consumed); !status.ok()) return status.error();
    if (entry.ok) {
      if (tokens.size() != 5) {
        return make_error(ErrorCode::protocol, "truncated bandwidth trace record");
      }
      auto bps = codec::numeric_field<double>(tokens[4], "bandwidth", kTrace);
      if (!bps.ok()) return bps.error();
      entry.bandwidth_bps = bps.value();
    }
    record.entries.push_back(std::move(entry));
    return record;
  }
  if (tag == "C") {
    record.kind = TraceRecord::Kind::concurrent;
    if (tokens.size() < 2) {
      return make_error(ErrorCode::protocol, "truncated concurrent trace record");
    }
    auto count = codec::numeric_field<std::uint64_t>(tokens[1], "batch size", kTrace);
    if (!count.ok()) return count.error();
    std::size_t at = 2;
    for (std::uint64_t i = 0; i < count.value(); ++i) {
      if (at + 2 > tokens.size()) {
        return make_error(ErrorCode::protocol, "truncated concurrent trace record");
      }
      TraceRecord::Entry entry;
      auto from = unescape(tokens[at]);
      auto to = unescape(tokens[at + 1]);
      if (!from.ok()) return from.error();
      if (!to.ok()) return to.error();
      entry.from = std::move(from.value());
      entry.to = std::move(to.value());
      at += 2;
      if (at >= tokens.size()) {
        return make_error(ErrorCode::protocol, "truncated concurrent trace record");
      }
      if (tokens[at] == "ok") {
        if (at + 1 >= tokens.size()) {
          return make_error(ErrorCode::protocol, "truncated concurrent trace record");
        }
        auto bps = codec::numeric_field<double>(tokens[at + 1], "bandwidth", kTrace);
        if (!bps.ok()) return bps.error();
        entry.bandwidth_bps = bps.value();
        at += 2;
      } else if (tokens[at] == "err") {
        entry.ok = false;
        if (auto status = read_error_tokens(tokens, at + 1, entry.error); !status.ok()) {
          return status.error();
        }
        at += 3;
      } else {
        return make_error(ErrorCode::protocol,
                          "expected 'ok' or 'err' in concurrent trace record, got '" + tokens[at] +
                              "'");
      }
      record.entries.push_back(std::move(entry));
    }
    if (at != tokens.size()) {
      return make_error(ErrorCode::protocol, "trailing tokens in concurrent trace record");
    }
    return record;
  }
  return make_error(ErrorCode::protocol, "unknown probe trace record tag '" + tag + "'");
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

Status ProbeTrace::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return make_error(ErrorCode::internal, "cannot write probe trace '" + path + "'");
  }
  out << to_string();
  out.close();
  if (!out) {
    return make_error(ErrorCode::internal, "short write on probe trace '" + path + "'");
  }
  return {};
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

void RecordingProbeEngine::append(TraceRecord record) {
  record.stats_after = inner_->stats();
  if (out_.has_value() && !write_error_.has_value()) {
    *out_ << serialize_record(record);
    out_->flush();
    if (!*out_) {
      write_error_ = make_error(ErrorCode::internal,
                                "short write on probe trace '" + trace_.source + "' (experiment " +
                                    std::to_string(trace_.records.size()) + ")");
      if (on_error_) on_error_(*write_error_);
    }
  }
  trace_.records.push_back(std::move(record));
}

Result<HostIdentity> RecordingProbeEngine::lookup(const std::string& hostname) {
  auto result = inner_->lookup(hostname);
  TraceRecord record;
  record.kind = TraceRecord::Kind::lookup;
  TraceRecord::Entry entry;
  entry.from = hostname;
  if (result.ok()) {
    entry.identity = result.value();
  } else {
    entry.ok = false;
    entry.error = result.error();
  }
  record.entries.push_back(std::move(entry));
  append(std::move(record));
  return result;
}

Result<std::vector<TraceHop>> RecordingProbeEngine::traceroute(const std::string& from,
                                                               const std::string& target) {
  auto result = inner_->traceroute(from, target);
  TraceRecord record;
  record.kind = TraceRecord::Kind::traceroute;
  TraceRecord::Entry entry;
  entry.from = from;
  entry.to = target;
  if (result.ok()) {
    entry.hops = result.value();
  } else {
    entry.ok = false;
    entry.error = result.error();
  }
  record.entries.push_back(std::move(entry));
  append(std::move(record));
  return result;
}

Result<double> RecordingProbeEngine::bandwidth(const std::string& from, const std::string& to) {
  auto result = inner_->bandwidth(from, to);
  TraceRecord record;
  record.kind = TraceRecord::Kind::bandwidth;
  TraceRecord::Entry entry;
  entry.from = from;
  entry.to = to;
  if (result.ok()) {
    entry.bandwidth_bps = result.value();
  } else {
    entry.ok = false;
    entry.error = result.error();
  }
  record.entries.push_back(std::move(entry));
  append(std::move(record));
  return result;
}

std::vector<Result<double>> RecordingProbeEngine::concurrent_bandwidth(
    const std::vector<BandwidthRequest>& requests) {
  auto results = inner_->concurrent_bandwidth(requests);
  TraceRecord record;
  record.kind = TraceRecord::Kind::concurrent;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    TraceRecord::Entry entry;
    entry.from = requests[i].from;
    entry.to = requests[i].to;
    if (i < results.size() && results[i].ok()) {
      entry.bandwidth_bps = results[i].value();
    } else if (i < results.size()) {
      entry.ok = false;
      entry.error = results[i].error();
    } else {
      // A misbehaving engine returned fewer results than requests:
      // record an error, never a fabricated successful 0-bps transfer.
      entry.ok = false;
      entry.error = make_error(ErrorCode::internal,
                               "engine returned no result for this concurrent request");
    }
    record.entries.push_back(std::move(entry));
  }
  append(std::move(record));
  return results;
}

std::vector<ProbeExperimentOutcome> RecordingProbeEngine::run_batch(
    const std::vector<ProbeExperiment>& experiments, std::size_t /*workers*/) {
  // Canonical sequential loop (see header): each experiment routes
  // through the recording bandwidth()/concurrent_bandwidth() overrides,
  // appending one record with exact per-experiment stats boundaries.
  return ProbeEngine::run_batch(experiments, 1);
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

const TraceRecord* TraceProbeEngine::match(TraceRecord::Kind kind, const std::string& summary,
                                           Error& mismatch) {
  if (mode_ == Mode::strict && violation_.has_value()) {
    mismatch = *violation_;
    return nullptr;
  }
  if (next_ >= trace_.records.size()) {
    mismatch = make_error(ErrorCode::protocol,
                          "probe trace '" + trace_.source + "' exhausted at experiment " +
                              std::to_string(next_) + ": " + summary +
                              " requested beyond the trace end");
    return nullptr;
  }
  const TraceRecord& record = trace_.records[next_];
  if (record.kind != kind) {
    mismatch = make_error(ErrorCode::protocol,
                          "probe trace '" + trace_.source + "' diverged at experiment " +
                              std::to_string(next_) + ": trace holds " + record.describe() +
                              ", caller requested " + summary);
    return nullptr;
  }
  return &record;
}

Result<HostIdentity> TraceProbeEngine::lookup(const std::string& hostname) {
  Error mismatch;
  const TraceRecord* record = match(TraceRecord::Kind::lookup, "lookup " + hostname, mismatch);
  if (record != nullptr && record->entries.front().from != hostname) {
    mismatch = make_error(ErrorCode::protocol,
                          "probe trace '" + trace_.source + "' diverged at experiment " +
                              std::to_string(next_) + ": trace holds " + record->describe() +
                              ", caller requested lookup " + hostname);
    record = nullptr;
  }
  if (record == nullptr) {
    if (mode_ == Mode::lenient && delegate_ != nullptr) return delegate_->lookup(hostname);
    if (mode_ == Mode::lenient) return mismatch;
    return violate(mismatch);
  }
  ++next_;
  replayed_stats_ = record->stats_after;
  const auto& entry = record->entries.front();
  if (!entry.ok) return entry.error;
  return entry.identity;
}

Result<std::vector<TraceHop>> TraceProbeEngine::traceroute(const std::string& from,
                                                           const std::string& target) {
  Error mismatch;
  const TraceRecord* record =
      match(TraceRecord::Kind::traceroute, "traceroute " + from + " -> " + target, mismatch);
  if (record != nullptr &&
      (record->entries.front().from != from || record->entries.front().to != target)) {
    mismatch = make_error(ErrorCode::protocol,
                          "probe trace '" + trace_.source + "' diverged at experiment " +
                              std::to_string(next_) + ": trace holds " + record->describe() +
                              ", caller requested traceroute " + from + " -> " + target);
    record = nullptr;
  }
  if (record == nullptr) {
    if (mode_ == Mode::lenient && delegate_ != nullptr) return delegate_->traceroute(from, target);
    if (mode_ == Mode::lenient) return mismatch;
    return violate(mismatch);
  }
  ++next_;
  replayed_stats_ = record->stats_after;
  const auto& entry = record->entries.front();
  if (!entry.ok) return entry.error;
  return entry.hops;
}

Result<double> TraceProbeEngine::bandwidth(const std::string& from, const std::string& to) {
  Error mismatch;
  const TraceRecord* record =
      match(TraceRecord::Kind::bandwidth, "bandwidth " + from + " -> " + to, mismatch);
  if (record != nullptr &&
      (record->entries.front().from != from || record->entries.front().to != to)) {
    mismatch = make_error(ErrorCode::protocol,
                          "probe trace '" + trace_.source + "' diverged at experiment " +
                              std::to_string(next_) + ": trace holds " + record->describe() +
                              ", caller requested bandwidth " + from + " -> " + to);
    record = nullptr;
  }
  if (record == nullptr) {
    if (mode_ == Mode::lenient && delegate_ != nullptr) return delegate_->bandwidth(from, to);
    if (mode_ == Mode::lenient) return mismatch;
    return violate(mismatch);
  }
  ++next_;
  replayed_stats_ = record->stats_after;
  const auto& entry = record->entries.front();
  if (!entry.ok) return entry.error;
  return entry.bandwidth_bps;
}

std::vector<Result<double>> TraceProbeEngine::concurrent_bandwidth(
    const std::vector<BandwidthRequest>& requests) {
  std::ostringstream summary;
  summary << "concurrent[" << requests.size() << ']';
  for (std::size_t i = 0; i < requests.size(); ++i) {
    summary << (i == 0 ? " " : ", ") << requests[i].from << " -> " << requests[i].to;
  }
  Error mismatch;
  const TraceRecord* record = match(TraceRecord::Kind::concurrent, summary.str(), mismatch);
  if (record != nullptr) {
    bool matches = record->entries.size() == requests.size();
    for (std::size_t i = 0; matches && i < requests.size(); ++i) {
      matches = record->entries[i].from == requests[i].from &&
                record->entries[i].to == requests[i].to;
    }
    if (!matches) {
      mismatch = make_error(ErrorCode::protocol,
                            "probe trace '" + trace_.source + "' diverged at experiment " +
                                std::to_string(next_) + ": trace holds " + record->describe() +
                                ", caller requested " + summary.str());
      record = nullptr;
    }
  }
  if (record == nullptr) {
    if (mode_ == Mode::lenient && delegate_ != nullptr) {
      return delegate_->concurrent_bandwidth(requests);
    }
    const Error error = mode_ == Mode::lenient ? mismatch : violate(mismatch);
    return std::vector<Result<double>>(requests.size(), Result<double>(error));
  }
  ++next_;
  replayed_stats_ = record->stats_after;
  std::vector<Result<double>> results;
  results.reserve(record->entries.size());
  for (const auto& entry : record->entries) {
    if (entry.ok) {
      results.push_back(entry.bandwidth_bps);
    } else {
      results.push_back(entry.error);
    }
  }
  return results;
}

std::vector<ProbeExperimentOutcome> TraceProbeEngine::run_batch(
    const std::vector<ProbeExperiment>& experiments, std::size_t /*workers*/) {
  // Canonical sequential loop (see header): every experiment must match
  // the next trace record, in order, exactly as it was recorded.
  return ProbeEngine::run_batch(experiments, 1);
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
