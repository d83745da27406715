#include "monitor/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>

#include "env/batch_schedule.hpp"
#include "nws/clique.hpp"
#include "testing/virtual_scheduler.hpp"

namespace envnws::monitor {

const char* to_string(MonitorEvent::Kind kind) {
  switch (kind) {
    case MonitorEvent::Kind::cycle_finished:
      return "cycle_finished";
    case MonitorEvent::Kind::snapshot_published:
      return "snapshot_published";
    case MonitorEvent::Kind::probe_failed:
      return "probe_failed";
    case MonitorEvent::Kind::drift_detected:
      return "drift_detected";
    case MonitorEvent::Kind::remap_started:
      return "remap_started";
    case MonitorEvent::Kind::remap_finished:
      return "remap_finished";
    case MonitorEvent::Kind::remap_failed:
      return "remap_failed";
  }
  return "unknown";
}

std::string MonitorEvent::describe() const {
  switch (kind) {
    case Kind::cycle_finished:
      return "probes=" + std::to_string(probes) + " failures=" + std::to_string(failures);
    case Kind::snapshot_published:
      if (snapshot == nullptr) break;
      return "version=" + std::to_string(snapshot->version) + " digest=" + snapshot->digest();
    default:
      break;
  }
  return detail;
}

namespace {

/// Measurement history kept per series.
constexpr std::size_t kSeriesHistory = 512;

}  // namespace

MonitorDaemon::MonitorDaemon(deploy::DeploymentPlan plan, std::unique_ptr<env::ProbeEngine> engine,
                             env::MapperOptions remap, MonitorOptions options)
    : plan_(std::move(plan)),
      engine_(std::move(engine)),
      remap_(std::move(remap)),
      options_(options),
      clock_(options.period_s > 0 ? options.period_s : 1.0),
      scheduler_(plan_),
      store_(kSeriesHistory, options.drift) {
  for (std::size_t c = 0; c < plan_.cliques.size(); ++c) {
    const deploy::PlannedClique& clique = plan_.cliques[c];
    if (clique.members.size() < 2) continue;
    for (const std::string& member : clique.members) {
      segment_hosts_[clique.segment()].insert(member);
      host_cliques_[member].push_back(c);
    }
  }
}

const deploy::PlannedClique* MonitorDaemon::first_clique(const std::string& from,
                                                         const std::string& to) const {
  const auto a = host_cliques_.find(from);
  const auto b = host_cliques_.find(to);
  if (from == to || a == host_cliques_.end() || b == host_cliques_.end()) return nullptr;
  // a's list ascends: its first clique that b's list holds too is the
  // first in plan order listing both hosts.
  const auto both = std::find_first_of(a->second.begin(), a->second.end(), b->second.begin(),
                                       b->second.end());
  return both == a->second.end() ? nullptr : &plan_.cliques[*both];
}

const std::string* MonitorDaemon::segment_of(const nws::SeriesKey& key) const {
  if (key.resource != nws::ResourceKind::bandwidth) return nullptr;
  const deploy::PlannedClique* clique = first_clique(key.src, key.dst);
  return clique == nullptr ? nullptr : &clique->segment();
}

MonitorDaemon::~MonitorDaemon() {
  stop();
  if (query_server_ != nullptr) query_server_->stop();
}

MonitorDaemon& MonitorDaemon::set_observer(std::function<void(const MonitorEvent&)> observer) {
  observer_ = std::move(observer);
  return *this;
}

MonitorDaemon& MonitorDaemon::set_remap_sink(RemapSink sink) {
  remap_sink_ = std::move(sink);
  return *this;
}

Status MonitorDaemon::run_cycles(std::uint64_t n) {
  {
    std::lock_guard<std::mutex> lock(run_mutex_);
    if (running_) {
      return make_error(ErrorCode::invalid_argument, "monitor daemon is already running");
    }
    running_ = true;
  }
  for (std::uint64_t i = 0; i < n; ++i) run_one_cycle();
  std::lock_guard<std::mutex> lock(run_mutex_);
  running_ = false;
  return {};
}

Status MonitorDaemon::start() {
  std::lock_guard<std::mutex> lock(run_mutex_);
  if (running_) {
    return make_error(ErrorCode::invalid_argument, "monitor daemon is already running");
  }
  running_ = true;
  stopping_.store(false);
  loop_ = std::thread([this] {
    while (!stopping_.load()) {
      run_one_cycle();
      if (!options_.pace) continue;
      // Paced mode: sleep one period of real time, in slices so stop()
      // is never more than a slice away.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration<double>(clock_.period_s());
      while (!stopping_.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  });
  return {};
}

void MonitorDaemon::stop() {
  stopping_.store(true);
  if (loop_.joinable()) loop_.join();
  std::lock_guard<std::mutex> lock(run_mutex_);
  running_ = false;
}

bool MonitorDaemon::running() const {
  std::lock_guard<std::mutex> lock(run_mutex_);
  return running_;
}

Status MonitorDaemon::start_query_server(const std::string& address, std::uint16_t port) {
  if (query_server_ != nullptr && query_server_->running()) {
    return make_error(ErrorCode::invalid_argument, "query server is already running");
  }
  query_server_ = std::make_unique<QueryServer>(board_, store_);
  return query_server_->start(address, port);
}

std::uint16_t MonitorDaemon::query_port() const {
  return query_server_ == nullptr ? 0 : query_server_->port();
}

std::uint64_t MonitorDaemon::queries_served() const {
  return query_server_ == nullptr ? 0 : query_server_->requests_served();
}

std::vector<std::string> MonitorDaemon::decision_log() const {
  std::lock_guard<std::mutex> lock(decision_mutex_);
  return {decisions_.begin(), decisions_.end()};
}

void MonitorDaemon::run_one_cycle() {
  // The probe, experiment and record-order buffers live across cycles:
  // a warm cycle overwrites their strings in place.
  std::vector<ScheduledProbe>& probes = probes_;
  scheduler_.cycle(clock_.cycles(), probes);
  if (experiments_.size() != probes.size()) {
    experiments_.assign(probes.size(), env::ProbeExperiment::single({}, {}));
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    env::BandwidthRequest& transfer = experiments_[i].transfers.front();
    transfer.from = probes[i].transfer.from;
    transfer.to = probes[i].transfer.to;
  }
  const std::size_t probe_jobs = std::max<std::size_t>(options_.probe_jobs, 1);
  const std::vector<env::ProbeExperimentOutcome> outcomes =
      options_.virtual_scheduler != nullptr
          ? env::run_batch_virtual(*engine_, experiments_, probe_jobs,
                                   *options_.virtual_scheduler)
          : engine_->run_batch(experiments_, probe_jobs);

  clock_.tick();
  const double now = clock_.now();
  // Store writes are per-key independent, so the order this loop folds
  // outcomes into the store must not matter: with a virtual scheduler
  // attached, the order itself becomes a decision ("monitor-record"),
  // and the replay suite asserts that every permutation yields the same
  // snapshot digests, drift decisions and counters.
  std::vector<std::size_t>& record_order = record_order_;
  record_order.resize(probes.size());
  std::iota(record_order.begin(), record_order.end(), 0);
  if (options_.virtual_scheduler != nullptr) {
    std::vector<std::size_t> remaining = record_order;
    record_order.clear();
    while (!remaining.empty()) {
      testing::DecisionPoint point;
      point.point = "monitor-record";
      point.ready.reserve(remaining.size());
      for (const std::size_t i : remaining) {
        point.ready.push_back(testing::ReadyTask{
            i, "record " + probes[i].transfer.from + "->" + probes[i].transfer.to});
      }
      const std::size_t slot = options_.virtual_scheduler->pick(point);
      record_order.push_back(remaining[slot]);
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(slot));
    }
  }
  std::size_t cycle_failures = 0;
  const auto fail = [&](const ScheduledProbe& probe, const std::string& why) {
    ++cycle_failures;
    probe_failures_.fetch_add(1);
    if (!observer_) return;
    emit(MonitorEvent::Kind::probe_failed, std::string(probe.segment),
         probe.transfer.from + "->" + probe.transfer.to + ": " + why);
  };
  for (const std::size_t i : record_order) {
    const ScheduledProbe& probe = probes[i];
    if (i >= outcomes.size() || outcomes[i].results.empty()) {
      fail(probe, "no batch outcome");
      continue;
    }
    const Result<double>& measured = outcomes[i].results.front();
    if (!measured.ok()) {
      fail(probe, measured.error().message);
      continue;
    }
    store_.record(nws::SeriesKey{nws::ResourceKind::bandwidth, probe.transfer.from,
                                 probe.transfer.to},
                  now, measured.value());
    measurements_.fetch_add(1);
  }
  cycles_done_.store(clock_.cycles());

  publish_snapshot(drift_pass());

  MonitorEvent finished;
  finished.kind = MonitorEvent::Kind::cycle_finished;
  finished.probes = probes.size();
  finished.failures = cycle_failures;
  emit(std::move(finished));
}

std::vector<std::string> MonitorDaemon::drift_pass() {
  // Group the drifting pairs by segment. std::map keeps segments in
  // sorted order — decisions (and thus the decision log) are made in a
  // deterministic order regardless of which pair flagged what first.
  std::map<std::string, std::size_t> per_segment;
  for (const nws::SeriesKey& key : store_.drifting()) {
    if (const std::string* segment = segment_of(key)) ++per_segment[*segment];
  }

  const std::uint64_t cycle = clock_.cycles();
  std::vector<std::string> still_drifting;
  for (const auto& [segment, pairs] : per_segment) {
    std::ostringstream line;
    line << "cycle=" << cycle << " segment=" << segment << " pairs=" << pairs;
    const auto cooldown = segment_cooldown_until_.find(segment);
    if (cooldown != segment_cooldown_until_.end() && cycle < cooldown->second) {
      line << " action=cooldown until=" << cooldown->second;
      log_decision(line.str());
      still_drifting.push_back(segment);
      continue;
    }
    emit(MonitorEvent::Kind::drift_detected, segment, "pairs=" + std::to_string(pairs));
    if (!options_.remap_on_drift) {
      line << " action=observe";
      log_decision(line.str());
      segment_cooldown_until_[segment] = cycle + options_.drift.cooldown_cycles;
      still_drifting.push_back(segment);
      continue;
    }
    line << " action=remap";
    log_decision(line.str());
    if (!remap_segment(segment, pairs).ok()) still_drifting.push_back(segment);
  }
  return still_drifting;
}

Status MonitorDaemon::remap_segment(const std::string& segment, std::size_t pairs_drifting) {
  const auto hosts = segment_hosts_.find(segment);
  if (hosts == segment_hosts_.end() || hosts->second.size() < 2) {
    return make_error(ErrorCode::not_found, "segment '" + segment + "' has no host set");
  }
  env::ZoneSpec spec;
  spec.zone_name = segment;
  spec.hostnames.assign(hosts->second.begin(), hosts->second.end());
  spec.master = hosts->second.count(plan_.master) > 0 ? plan_.master : spec.hostnames.front();
  spec.traceroute_target = spec.master;

  emit(MonitorEvent::Kind::remap_started, segment,
       "hosts=" + std::to_string(spec.hostnames.size()) +
           " drifting-pairs=" + std::to_string(pairs_drifting));

  // Whatever the incremental re-map probes goes through the daemon's own
  // engine: the experiment-count diff below is exactly its probe cost,
  // and recorded/replayed sessions capture it like any other probing.
  const std::uint64_t experiments_before = engine_->stats().experiments;
  env::Mapper mapper(*engine_, remap_);
  Result<env::ZoneMapResult> remapped = mapper.map_zone(spec);
  const std::uint64_t cost = engine_->stats().experiments - experiments_before;
  remap_experiments_.fetch_add(cost);

  // Cooldown either way: the re-probe itself says nothing about the
  // forecast, and a failing segment must not retry every cycle.
  segment_cooldown_until_[segment] = clock_.cycles() + options_.drift.cooldown_cycles;

  if (!remapped.ok()) {
    emit(MonitorEvent::Kind::remap_failed, segment, remapped.error().message);
    return remapped.error();
  }

  // The refreshed platform seeds fresh verdicts: forget the learned
  // state (forecasters + drift windows) of every stored pair in the
  // segment.
  store_.reset_learning([&](const nws::SeriesKey& key) {
    const std::string* owner = segment_of(key);
    return owner != nullptr && *owner == segment;
  });

  remaps_.fetch_add(1);
  // pairs-reset counts the segment's planned pairs, measured or not.
  std::uint64_t planned = 0;
  for (const deploy::PlannedClique& clique : plan_.cliques) {
    if (clique.segment() != segment) continue;
    const std::vector<std::string> members = nws::distinct_members(clique.members);
    for (std::uint64_t k = 0; k < nws::pair_count(members); ++k) {
      const auto [from, to] = nws::pair_at(members, k);
      if (first_clique(from, to) == &clique) ++planned;
    }
  }
  emit(MonitorEvent::Kind::remap_finished, segment,
       "experiments=" + std::to_string(cost) + " pairs-reset=" + std::to_string(planned));
  if (remap_sink_) remap_sink_(segment, remapped.value());
  return {};
}

void MonitorDaemon::publish_snapshot(std::vector<std::string> drifting_segments) {
  ++snapshot_version_;
  auto snapshot = build_snapshot(store_, snapshot_version_, clock_.cycles(), clock_.now(),
                                 measurements_.load(), probe_failures_.load(), remaps_.load(),
                                 remap_experiments_.load(), std::move(drifting_segments));
  board_.publish(snapshot);
  MonitorEvent published;
  published.kind = MonitorEvent::Kind::snapshot_published;
  published.snapshot = std::move(snapshot);
  emit(std::move(published));
}

void MonitorDaemon::emit(MonitorEvent::Kind kind, std::string segment, std::string detail) {
  MonitorEvent event;
  event.kind = kind;
  event.segment = std::move(segment);
  event.detail = std::move(detail);
  emit(std::move(event));
}

void MonitorDaemon::emit(MonitorEvent event) {
  if (!observer_) return;
  event.cycle = clock_.cycles();
  event.time_s = clock_.now();
  observer_(event);
}

void MonitorDaemon::log_decision(std::string line) {
  std::lock_guard<std::mutex> lock(decision_mutex_);
  decisions_.push_back(std::move(line));
  if (decisions_.size() > kDecisionHistory) decisions_.pop_front();
}

}  // namespace envnws::monitor
