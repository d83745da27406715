// Spans for the traced run of bench_e2e, recorded from the benchmark's own
// files around the calls it makes into each layer of the program.
//
// A span is {name, op id, parent, start, end}; every span of one timed op
// shares that op's id. Spans open and close on a per-thread stack, so a
// call made inside a span becomes its child. Calls too numerous to keep
// one span each (probe-engine calls, monitor fold/publish steps) are
// folded into one *aggregate* child of the innermost open span per name,
// carrying the call count and the summed busy time. Everything is kept
// in memory and written as JSON lines when the benchmark ends.
//
// When the tracer is disabled every entry point returns at once, so the
// instruments below can stay installed for the untraced ops a traced run
// interleaves (that pairing is what trace.overhead_ratio compares).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/observer.hpp"
#include "api/session.hpp"
#include "env/probe_engine.hpp"
#include "monitor/daemon.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds of `t` since the start of the process (the span time base).
[[nodiscard]] std::int64_t to_ns(Clock::time_point t);
[[nodiscard]] inline std::int64_t now_ns() { return to_ns(Clock::now()); }

struct Span {
  std::string name;
  std::uint64_t op = 0;       ///< id shared by all spans of one op
  std::int64_t parent = -1;   ///< index of the parent span, -1 for a root
  std::int64_t start_ns = 0;  ///< aggregates: start of the first folded call
  std::int64_t end_ns = 0;    ///< aggregates: end of the last folded call
  std::int64_t busy_ns = 0;   ///< end - start, or the summed time of the folded calls
  std::uint64_t calls = 1;
  bool aggregate = false;
};

class Tracer {
 public:
  /// The process-wide tracer. The first call binds the calling thread as
  /// the main thread (call it from main() before starting any thread).
  static Tracer& instance();

  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Toggle only between ops, while no span is open.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// A fresh op id; spans opened on any thread from now on carry it.
  std::uint64_t begin_op();
  /// A fresh op id that does not become the current one (for spans
  /// recorded after the fact with record_root, as a client batch's are).
  std::uint64_t new_op_id() { return next_op_.fetch_add(1) + 1; }

  /// Open a span as the child of this thread's innermost open span or,
  /// on a thread with none (a map-stage zone worker), of the main
  /// thread's innermost. No-op when disabled.
  void open(std::string name);
  /// Close this thread's innermost span and return its end time; its
  /// aggregates are stored as its children. No-op (returns now) when
  /// disabled or when nothing is open.
  std::int64_t close();
  /// Fold one call of `name` into the innermost open span of this thread.
  /// No-op when disabled or when this thread has no open span.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns);
  /// Store a finished interval as a child of this thread's innermost span
  /// (or of the main thread's, as open() picks the parent).
  void record_child(std::string name, std::int64_t start_ns, std::int64_t end_ns);
  /// Store a finished interval as the root span of op `op`.
  void record_root(std::string name, std::uint64_t op, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Hand over every span recorded so far and start afresh (between
  /// workloads; no span may be open).
  [[nodiscard]] std::vector<Span> take();

 private:
  Tracer();
  std::int64_t store(Span span);
  [[nodiscard]] std::int64_t parent_for_new_span() const;
  void note_main_top();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_op_{0};
  std::atomic<std::uint64_t> current_op_{0};
  /// Innermost open span of the main thread (-1 when none).
  std::atomic<std::int64_t> main_top_{-1};
  std::thread::id main_thread_;

  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// RAII span on the calling thread; inert when the tracer is disabled at
/// construction.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

/// Probe-engine decorator: times each call into the wrapped engine as an
/// `env.probe.<kind>` aggregate of the caller's innermost span. run_batch
/// is deliberately not overridden: the base implementation loops over
/// the virtuals below, exactly as the simulator engine's own run_batch
/// does, so the experiment stream stays bit-identical.
class TimedProbeEngine final : public envnws::env::ProbeEngine {
 public:
  explicit TimedProbeEngine(std::unique_ptr<envnws::env::ProbeEngine> inner)
      : inner_(std::move(inner)) {}

  envnws::Result<envnws::env::HostIdentity> lookup(const std::string& hostname) override;
  envnws::Result<std::vector<envnws::env::TraceHop>> traceroute(
      const std::string& from, const std::string& target) override;
  envnws::Result<double> bandwidth(const std::string& from, const std::string& to) override;
  std::vector<envnws::Result<double>> concurrent_bandwidth(
      const std::vector<envnws::env::BandwidthRequest>& requests) override;
  [[nodiscard]] envnws::env::ProbeStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<envnws::env::ProbeEngine> inner_;
};

/// The simulator engine behind a TimedProbeEngine, for
/// Session::set_probe_engine_factory (make_monitor uses it too).
[[nodiscard]] envnws::api::ProbeEngineFactory timed_sim_factory();

/// Session observer stamping zone spans (zone_started .. zone_finished,
/// on the thread that maps the zone) and the merge span (last zone end
/// .. the map stage's stage_finished).
class StampingObserver final : public envnws::api::Observer {
 public:
  void on_event(const envnws::api::Event& event) override;

 private:
  std::int64_t last_zone_end_ns_ = -1;  ///< guarded by the Session's event mutex
};

/// MonitorEvent observer: folds each cycle's `monitor.fold_publish` step
/// (last probe return .. snapshot_published) into the innermost span and
/// counts published snapshots.
[[nodiscard]] std::function<void(const envnws::monitor::MonitorEvent&)> monitor_observer(
    std::shared_ptr<std::atomic<std::uint64_t>> publishes);

/// Per-layer view of the spans under the timed ops named `op_name`.
struct LayerRow {
  std::string name;
  std::uint64_t spans = 0;
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
};

struct TraceSummary {
  std::uint64_t ops = 0;
  double op_wall_s = 0.0;
  /// Time of the ops covered by their named child spans.
  double covered_s = 0.0;
  std::vector<LayerRow> rows;  ///< sorted by self time, largest first

  [[nodiscard]] const LayerRow* find(const std::string& name) const;
  [[nodiscard]] double self_share(const std::string& name) const;
  [[nodiscard]] double calls_per_op(const std::string& name) const;
};

/// Self time is a span's busy time minus what its children cover
/// (interval children by their union, aggregates by their busy time).
[[nodiscard]] TraceSummary summarize(const std::vector<Span>& spans, const std::string& op_name);

/// Median duration of every span named `name`, wherever it sits.
[[nodiscard]] double median_span_s(const std::vector<Span>& spans, const std::string& name);
/// Summed busy time per call over every span named `name`, in µs.
[[nodiscard]] double us_per_call(const std::vector<Span>& spans, const std::string& name);

/// The per-layer table (name, spans, calls, busy, self, share of op wall).
void print_layer_table(const TraceSummary& summary, const std::string& op_name);

/// Write each workload's spans as JSON lines, one object per span tagged
/// with its workload, in index order; false when the file is unwritable.
[[nodiscard]] bool write_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<Span>>>& workloads);

}  // namespace e2e
