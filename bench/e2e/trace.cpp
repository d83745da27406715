#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "env/sim_probe_engine.hpp"
#include "report.hpp"

namespace e2e {

namespace {

/// One open span of the calling thread and the aggregates folded into it.
struct Frame {
  std::int64_t index = -1;
  std::vector<Span> aggregates;
};

thread_local std::vector<Frame> t_frames;
/// End of the calling thread's most recent timed probe call (the start
/// of a monitor cycle's fold/publish step).
thread_local std::int64_t t_last_probe_end_ns = 0;

const Clock::time_point kEpoch = Clock::now();

}  // namespace

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch).count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : main_thread_(std::this_thread::get_id()) {}

std::uint64_t Tracer::begin_op() {
  const std::uint64_t op = new_op_id();
  current_op_.store(op);
  return op;
}

std::int64_t Tracer::store(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::parent_for_new_span() const {
  if (!t_frames.empty()) return t_frames.back().index;
  return main_top_.load();
}

void Tracer::note_main_top() {
  if (std::this_thread::get_id() != main_thread_) return;
  main_top_.store(t_frames.empty() ? -1 : t_frames.back().index);
}

void Tracer::open(std::string name) {
  if (!enabled()) return;
  Span span;
  span.name = std::move(name);
  span.op = current_op_.load();
  span.parent = parent_for_new_span();
  span.start_ns = now_ns();
  t_frames.push_back(Frame{store(std::move(span)), {}});
  note_main_top();
}

std::int64_t Tracer::close() {
  const std::int64_t end = now_ns();
  if (!enabled() || t_frames.empty()) return end;
  Frame frame = std::move(t_frames.back());
  t_frames.pop_back();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(frame.index)];
    span.end_ns = end;
    span.busy_ns = end - span.start_ns;
    const std::uint64_t op = span.op;  // `span` dangles once spans_ grows
    for (Span& aggregate : frame.aggregates) {
      aggregate.op = op;
      aggregate.parent = frame.index;
      spans_.push_back(std::move(aggregate));
    }
  }
  note_main_top();
  return end;
}

void Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled() || t_frames.empty()) return;
  std::vector<Span>& aggregates = t_frames.back().aggregates;
  auto found = std::find_if(aggregates.begin(), aggregates.end(),
                            [name](const Span& span) { return span.name == name; });
  if (found == aggregates.end()) {
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.calls = 0;
    span.aggregate = true;
    aggregates.push_back(std::move(span));
    found = aggregates.end() - 1;
  }
  found->end_ns = end_ns;
  found->busy_ns += end_ns - start_ns;
  ++found->calls;
}

void Tracer::record_child(std::string name, std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled()) return;
  Span span;
  span.name = std::move(name);
  span.op = current_op_.load();
  span.parent = parent_for_new_span();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.busy_ns = end_ns - start_ns;
  store(std::move(span));
}

void Tracer::record_root(std::string name, std::uint64_t op, std::int64_t start_ns,
                         std::int64_t end_ns) {
  if (!enabled()) return;
  Span span;
  span.name = std::move(name);
  span.op = op;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.busy_ns = end_ns - start_ns;
  store(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<Span> Tracer::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> taken;
  taken.swap(spans_);
  return taken;
}

bool write_trace(const std::string& path,
                 const std::vector<std::pair<std::string, std::vector<Span>>>& workloads) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  char line[512];
  for (const auto& [workload, spans] : workloads) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      std::snprintf(line, sizeof(line),
                    "{\"workload\":\"%s\",\"name\":\"%s\",\"id\":%llu,\"span\":%zu,"
                    "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,\"busy_ns\":%lld,"
                    "\"calls\":%llu,\"aggregate\":%s}\n",
                    workload.c_str(), span.name.c_str(), static_cast<unsigned long long>(span.op),
                    i, static_cast<long long>(span.parent), static_cast<long long>(span.start_ns),
                    static_cast<long long>(span.end_ns), static_cast<long long>(span.busy_ns),
                    static_cast<unsigned long long>(span.calls),
                    span.aggregate ? "true" : "false");
      out << line;
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(std::string name) : active_(Tracer::instance().enabled()) {
  if (active_) Tracer::instance().open(std::move(name));
}

ScopedSpan::~ScopedSpan() {
  if (active_) Tracer::instance().close();
}

// --- instruments ------------------------------------------------------------

namespace {

/// Time `call` as one `name` aggregate when tracing, else just call it.
template <typename Call>
auto timed(const char* name, Call&& call) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return call();
  const std::int64_t start = now_ns();
  auto result = call();
  const std::int64_t end = now_ns();
  tracer.add(name, start, end);
  t_last_probe_end_ns = end;
  return result;
}

}  // namespace

envnws::Result<envnws::env::HostIdentity> TimedProbeEngine::lookup(const std::string& hostname) {
  return timed("env.probe.lookup", [&] { return inner_->lookup(hostname); });
}

envnws::Result<std::vector<envnws::env::TraceHop>> TimedProbeEngine::traceroute(
    const std::string& from, const std::string& target) {
  return timed("env.probe.traceroute", [&] { return inner_->traceroute(from, target); });
}

envnws::Result<double> TimedProbeEngine::bandwidth(const std::string& from,
                                                   const std::string& to) {
  return timed("env.probe.bandwidth", [&] { return inner_->bandwidth(from, to); });
}

std::vector<envnws::Result<double>> TimedProbeEngine::concurrent_bandwidth(
    const std::vector<envnws::env::BandwidthRequest>& requests) {
  return timed("env.probe.concurrent", [&] { return inner_->concurrent_bandwidth(requests); });
}

envnws::api::ProbeEngineFactory timed_sim_factory() {
  return [](envnws::simnet::Network& net, const envnws::env::MapperOptions& options)
             -> std::unique_ptr<envnws::env::ProbeEngine> {
    return std::make_unique<TimedProbeEngine>(
        std::make_unique<envnws::env::SimProbeEngine>(net, options));
  };
}

void StampingObserver::on_event(const envnws::api::Event& event) {
  using Kind = envnws::api::Event::Kind;
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  switch (event.kind) {
    case Kind::zone_started:
      tracer.open("env.zone");
      break;
    case Kind::zone_finished:
    case Kind::zone_failed:
      last_zone_end_ns_ = std::max(last_zone_end_ns_, tracer.close());
      break;
    case Kind::stage_started:
      if (event.stage == envnws::api::Stage::map) last_zone_end_ns_ = -1;
      break;
    case Kind::stage_finished:
      if (event.stage == envnws::api::Stage::map && last_zone_end_ns_ >= 0) {
        tracer.record_child("env.merge", last_zone_end_ns_, now_ns());
      }
      break;
    default:
      break;
  }
}

std::function<void(const envnws::monitor::MonitorEvent&)> monitor_observer(
    std::shared_ptr<std::atomic<std::uint64_t>> publishes) {
  return [publishes](const envnws::monitor::MonitorEvent& event) {
    if (event.kind != envnws::monitor::MonitorEvent::Kind::snapshot_published) return;
    publishes->fetch_add(1);
    Tracer::instance().add("monitor.fold_publish", t_last_probe_end_ns, now_ns());
  };
}

// --- analysis ---------------------------------------------------------------

const LayerRow* TraceSummary::find(const std::string& name) const {
  for (const LayerRow& row : rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

double TraceSummary::self_share(const std::string& name) const {
  const LayerRow* row = find(name);
  return row == nullptr || op_wall_s <= 0.0 ? 0.0 : row->self_s / op_wall_s;
}

double TraceSummary::calls_per_op(const std::string& name) const {
  const LayerRow* row = find(name);
  return row == nullptr || ops == 0 ? 0.0 : static_cast<double>(row->calls) / static_cast<double>(ops);
}

namespace {

/// Nanoseconds of [start, end) that `spans[children]` cover.
std::int64_t covered_ns(const std::vector<Span>& spans, const std::vector<std::size_t>& children,
                        std::int64_t start, std::int64_t end) {
  std::int64_t aggregate_ns = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const std::size_t child : children) {
    const Span& span = spans[child];
    if (span.aggregate) {
      aggregate_ns += span.busy_ns;
    } else {
      intervals.emplace_back(std::max(span.start_ns, start), std::min(span.end_ns, end));
    }
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t union_ns = 0;
  std::int64_t reach = start;
  for (const auto& [from, to] : intervals) {
    const std::int64_t lo = std::max(from, reach);
    if (to > lo) {
      union_ns += to - lo;
      reach = to;
    }
  }
  return std::min(end - start, union_ns + aggregate_ns);
}

}  // namespace

TraceSummary summarize(const std::vector<Span>& spans, const std::string& op_name) {
  // Parents always precede their children (a span is stored when it
  // opens, its aggregates and recorded children later), so one forward
  // pass finds every span's root.
  std::vector<std::int64_t> root(spans.size(), -1);
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t parent = spans[i].parent;
    if (parent < 0) {
      root[i] = static_cast<std::int64_t>(i);
    } else {
      root[i] = root[static_cast<std::size_t>(parent)];
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  TraceSummary summary;
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (root[i] < 0 || spans[static_cast<std::size_t>(root[i])].name != op_name) continue;
    const std::int64_t covered =
        span.aggregate ? 0 : covered_ns(spans, children[i], span.start_ns, span.end_ns);
    if (span.parent < 0) {
      ++summary.ops;
      summary.op_wall_s += static_cast<double>(span.busy_ns) * 1e-9;
      summary.covered_s += static_cast<double>(covered) * 1e-9;
    }
    LayerRow& row = rows[span.name];
    row.name = span.name;
    ++row.spans;
    row.calls += span.calls;
    row.busy_s += static_cast<double>(span.busy_ns) * 1e-9;
    row.self_s += static_cast<double>(span.busy_ns - covered) * 1e-9;
  }
  for (auto& [name, row] : rows) summary.rows.push_back(row);
  std::sort(summary.rows.begin(), summary.rows.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.self_s > b.self_s; });
  return summary;
}

double median_span_s(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> durations;
  for (const Span& span : spans) {
    if (span.name == name) durations.push_back(static_cast<double>(span.busy_ns) * 1e-9);
  }
  return median(std::move(durations));
}

double us_per_call(const std::vector<Span>& spans, const std::string& name) {
  std::int64_t busy = 0;
  std::uint64_t calls = 0;
  for (const Span& span : spans) {
    if (span.name != name) continue;
    busy += span.busy_ns;
    calls += span.calls;
  }
  return calls == 0 ? 0.0 : static_cast<double>(busy) * 1e-3 / static_cast<double>(calls);
}

void print_layer_table(const TraceSummary& summary, const std::string& op_name) {
  std::printf("per-layer self time under %llu traced '%s' op(s), %.3f s of op wall, "
              "%.1f%% covered by named child spans:\n",
              static_cast<unsigned long long>(summary.ops), op_name.c_str(), summary.op_wall_s,
              summary.op_wall_s > 0.0 ? 100.0 * summary.covered_s / summary.op_wall_s : 0.0);
  std::printf("  %-24s %9s %11s %12s %12s %8s\n", "span", "spans", "calls", "busy s", "self s",
              "self %");
  for (const LayerRow& row : summary.rows) {
    std::printf("  %-24s %9llu %11llu %12.6f %12.6f %7.2f%%\n", row.name.c_str(),
                static_cast<unsigned long long>(row.spans),
                static_cast<unsigned long long>(row.calls), row.busy_s, row.self_s,
                summary.op_wall_s > 0.0 ? 100.0 * row.self_s / summary.op_wall_s : 0.0);
  }
}

}  // namespace e2e
