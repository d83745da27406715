// Probe traces: record and replay the observation stream of an ENV run.
//
// The ENV mapper is defined entirely by the probe experiments it issues
// (probe_engine.hpp), so that stream IS the mapping: serialize it once
// and every mapping run becomes a durable, replayable artifact. A
// `RecordingProbeEngine` wraps any `ProbeEngine` and writes each
// experiment — kind, endpoints, outcome, cumulative engine stats — to a
// versioned text trace (`ENVTRACE 1`, grammar in docs/TESTING.md); a
// `TraceProbeEngine` plays such a trace back without touching the
// platform at all, so a `MapResult` obtained from a trace is
// bit-identical to the one the recorded run produced (tier-1 golden
// traces under tests/data/traces/ assert exactly that). Strict replay
// turns any out-of-trace request into a sticky violation — the mapper
// folds probe errors into warnings, so callers (api::Session) must check
// `violation()` after mapping to fail loudly instead of silently
// accepting a half-replayed view; lenient replay falls back to a
// delegate engine instead.
//
// This is the validation substrate for real-hardware backends: a
// TCP-based engine can be checked offline against traces recorded from
// the simulator (or vice versa) before it ever probes a live network.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "env/probe_engine.hpp"

namespace envnws::env {

/// One recorded engine call: the request, its outcome(s), and the inner
/// engine's cumulative stats right after it — replaying the stats at the
/// same boundaries keeps per-zone MapStats (computed by diffing
/// `ProbeEngine::stats()` around each zone) bit-identical.
struct TraceRecord {
  enum class Kind { lookup, traceroute, bandwidth, concurrent };

  /// One request/result pair. Plain experiments carry exactly one entry;
  /// a concurrent batch carries one per transfer, in request order.
  struct Entry {
    std::string from;  ///< lookup: hostname; others: source host
    std::string to;    ///< traceroute: target; bandwidth: sink; lookup: unused
    bool ok = true;
    Error error;                 ///< when !ok
    double bandwidth_bps = 0.0;  ///< bandwidth / concurrent outcomes
    HostIdentity identity;       ///< lookup outcome
    std::vector<TraceHop> hops;  ///< traceroute outcome
  };

  Kind kind = Kind::lookup;
  std::vector<Entry> entries;
  ProbeStats stats_after;

  /// "bandwidth m -> h0", "concurrent[2] m -> h0, m -> h1" — the request
  /// summary used by divergence and injected-fault diagnostics.
  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] const char* to_string(TraceRecord::Kind kind);

/// A parsed probe trace: the in-memory form of one ENVTRACE document.
struct ProbeTrace {
  static constexpr int kFormatVersion = 1;

  std::vector<TraceRecord> records;
  /// Where the trace came from, for diagnostics ("<memory>" when parsed
  /// from text).
  std::string source = "<memory>";

  static Result<ProbeTrace> parse(const std::string& text, std::string source = "<memory>");
  /// `not_found` when the file does not exist; `protocol` when it exists
  /// but is not a version-1 ENVTRACE document.
  static Result<ProbeTrace> load(const std::string& path);

  /// Serialized ENVTRACE document; `parse(t.to_string())` round-trips.
  [[nodiscard]] std::string to_string() const;
};

/// Per-zone trace file of a concurrent (map_threads > 1) recording:
/// zone k of a recording rooted at `path` lives at `path + ".zone" + k`.
[[nodiscard]] std::string zone_trace_path(const std::string& path, std::size_t zone_index);

/// Base of the record, replay and fault decorators. Each of the four
/// engine calls becomes a `TraceRecord` request (its kind plus the
/// from/to of each entry, outcomes unset) and goes through the one
/// private `handle()`, which stores an outcome in every entry; the call
/// returns those outcomes. A decorator thus decides what a call is, and
/// what to do with it, in one place for every call kind.
class ProbeDecorator : public ProbeEngine {
 public:
  Result<HostIdentity> lookup(const std::string& hostname) final;
  Result<std::vector<TraceHop>> traceroute(const std::string& from,
                                           const std::string& target) final;
  Result<double> bandwidth(const std::string& from, const std::string& to) final;
  std::vector<Result<double>> concurrent_bandwidth(
      const std::vector<BandwidthRequest>& requests) final;

 protected:
  /// Issue `call` on `engine` and store each outcome in `call`'s entries.
  static void forward(ProbeEngine& engine, TraceRecord& call);
  /// Store `error` as the outcome of every entry of `call`.
  static void fail(TraceRecord& call, const Error& error);

 private:
  /// `call` with an outcome in each of its entries (same count, same order).
  virtual TraceRecord handle(TraceRecord call) = 0;
};

/// Decorator that records every experiment the wrapped engine performs.
/// The trace accumulates in memory (`trace()`) and, when opened on a
/// path, is also appended to disk record by record (flushed after each,
/// so a crashed run still leaves a usable prefix).
class RecordingProbeEngine final : public ProbeDecorator {
 public:
  /// Record in memory only.
  explicit RecordingProbeEngine(std::unique_ptr<ProbeEngine> inner);
  /// Record to `path` (truncating any previous trace) as well as in
  /// memory. Fails when the file cannot be created.
  static Result<std::unique_ptr<RecordingProbeEngine>> open(std::unique_ptr<ProbeEngine> inner,
                                                           const std::string& path);

  [[nodiscard]] ProbeStats stats() const override;

  /// Everything recorded so far.
  [[nodiscard]] const ProbeTrace& trace() const { return trace_; }
  /// Recording is best-effort: a write failure (disk full) never fails
  /// the experiment itself. The first such error is kept here and also
  /// reported through the handler, once.
  [[nodiscard]] const std::optional<Error>& write_error() const { return write_error_; }
  RecordingProbeEngine& set_error_handler(std::function<void(const Error&)> handler);

 private:
  TraceRecord handle(TraceRecord call) override;

  std::unique_ptr<ProbeEngine> inner_;
  ProbeTrace trace_;
  std::optional<std::ofstream> out_;
  std::optional<Error> write_error_;
  std::function<void(const Error&)> on_error_;
};

/// Engine that replays a recorded trace instead of probing anything.
///
/// Requests must arrive in recorded order (the mapper's schedule is
/// deterministic, so a matching run replays exactly). In strict mode the
/// first out-of-trace request — wrong kind, wrong endpoints, or any
/// request past the end of the trace — becomes a sticky violation: it is
/// returned as the error of that and every later experiment, kept in
/// `violation()`, and reported once through the violation handler. In
/// lenient mode such requests fall through to the delegate engine (the
/// trace cursor does not advance) and replay resumes where it matched.
class TraceProbeEngine final : public ProbeDecorator {
 public:
  enum class Mode { strict, lenient };

  TraceProbeEngine(ProbeTrace trace, Mode mode = Mode::strict,
                   std::unique_ptr<ProbeEngine> delegate = nullptr);

  /// The recorded cumulative stats as of the last replayed experiment
  /// (plus the delegate's own stats in lenient mode).
  [[nodiscard]] ProbeStats stats() const override;

  /// Experiments replayed so far == index of the next trace record.
  [[nodiscard]] std::size_t position() const { return next_; }
  /// First out-of-trace request (strict mode), with the offending
  /// experiment index in the message. Mappers downgrade probe errors to
  /// warnings, so callers MUST check this after mapping.
  [[nodiscard]] const std::optional<Error>& violation() const { return violation_; }
  TraceProbeEngine& set_violation_handler(std::function<void(const Error&)> handler);

 private:
  TraceRecord handle(TraceRecord call) override;
  /// The next record when it holds `call` (kind and endpoints), advancing
  /// the cursor and the replayed stats; otherwise the exhausted/diverged
  /// error, or the sticky violation in strict mode.
  Result<const TraceRecord*> take(const TraceRecord& call);
  Error violate(Error error);

  ProbeTrace trace_;
  Mode mode_;
  std::unique_ptr<ProbeEngine> delegate_;
  std::size_t next_ = 0;
  ProbeStats replayed_stats_;
  std::optional<Error> violation_;
  std::function<void(const Error&)> on_violation_;
};

}  // namespace envnws::env
