#include "nws/system.hpp"

#include <algorithm>
#include <cassert>

namespace envnws::nws {

using simnet::NodeId;

namespace {
constexpr std::int64_t kControlBytes = 64;
constexpr std::int64_t kPerMeasurementBytes = 16;
constexpr std::uint64_t kMaxQuerySteps = 20'000'000;
}  // namespace

NwsSystem::NwsSystem(simnet::Network& net, SystemConfig config)
    : net_(net), config_(std::move(config)) {
  assert(!config_.nameserver_host.empty());
  nameserver_ = std::make_unique<NameServer>(node(config_.nameserver_host).value());
  if (config_.enable_host_locks) locks_ = std::make_unique<HostLockService>();
  forecaster_host_ = config_.forecaster_host.empty()
                         ? nameserver_->host()
                         : node(config_.forecaster_host).value();
  if (config_.memory_hosts.empty()) config_.memory_hosts = {config_.nameserver_host};
  for (const auto& host : config_.memory_hosts) {
    memories_.push_back(std::make_unique<MemoryServer>("memory@" + host, node(host).value(),
                                                       config_.series_capacity));
  }
}

NwsSystem::~NwsSystem() { stop(); }

Result<NodeId> NwsSystem::node(const std::string& name) const {
  return net_.topology().find_by_name(name);
}

MemoryServer& NwsSystem::memory_for_clique(const std::vector<simnet::NodeId>& members) {
  std::vector<MemoryServer*> reachable;
  for (const auto& memory : memories_) {
    const bool all_reach = std::all_of(
        members.begin(), members.end(),
        [&](simnet::NodeId member) { return net_.can_communicate(member, memory->host()); });
    if (all_reach) reachable.push_back(memory.get());
  }
  if (reachable.empty()) reachable.push_back(memories_.front().get());
  MemoryServer& memory = *reachable[next_memory_ % reachable.size()];
  ++next_memory_;
  return memory;
}

Clique& NwsSystem::add_clique(const CliqueSpec& spec) {
  MemoryServer& memory = memory_for_clique(spec.members);
  cliques_.push_back(std::make_unique<Clique>(net_, spec, memory, locks_.get()));
  Clique& clique = *cliques_.back();
  // Register the clique's series with the name server (simulated
  // registration traffic: one control message per series).
  for (std::uint64_t k = 0; k < clique.pair_count(); ++k) {
    const auto [src, dst] = clique.pair_at(k);
    const std::string src_name = net_.topology().node(src).name;
    const std::string dst_name = net_.topology().node(dst).name;
    for (const ResourceKind kind :
         {ResourceKind::bandwidth, ResourceKind::latency, ResourceKind::connect_time}) {
      nameserver_->register_series(SeriesKey{kind, src_name, dst_name}, memory.name());
    }
    net_.send_message(src, nameserver_->host(), kControlBytes, nullptr, "nws-register");
  }
  if (started_) clique.start();
  return clique;
}

Status NwsSystem::add_host_sensor(const std::string& host_name) {
  const auto found = node(host_name);
  if (!found.ok()) return found.error();
  const NodeId host = found.value();
  MemoryServer& memory = *memories_.front();
  sensors_.push_back(
      std::make_unique<HostSensor>(net_, host, memory, config_.host_sensor_period_s));
  for (const ResourceKind kind :
       {ResourceKind::cpu, ResourceKind::memory, ResourceKind::disk}) {
    nameserver_->register_series(SeriesKey{kind, host_name, ""}, memory.name());
  }
  net_.send_message(host, nameserver_->host(), kControlBytes, nullptr, "nws-register");
  if (started_) sensors_.back()->start();
  return {};
}

Result<UncoordinatedProbe*> NwsSystem::add_uncoordinated_probe(const std::string& src,
                                                                const std::string& dst,
                                                                double period_s) {
  const auto src_id = node(src);
  if (!src_id.ok()) return src_id.error();
  const auto dst_id = node(dst);
  if (!dst_id.ok()) return dst_id.error();
  MemoryServer& memory = *memories_.front();
  probes_.push_back(std::make_unique<UncoordinatedProbe>(net_, src_id.value(), dst_id.value(),
                                                         memory, period_s));
  if (started_) probes_.back()->start();
  return probes_.back().get();
}

void NwsSystem::start() {
  if (started_) return;
  started_ = true;
  nameserver_->register_process(
      ProcessInfo{ProcessKind::nameserver, "nameserver", nameserver_->host()});
  nameserver_->register_process(
      ProcessInfo{ProcessKind::forecaster, "forecaster", forecaster_host_});
  for (const auto& memory : memories_) {
    nameserver_->register_process(ProcessInfo{ProcessKind::memory, memory->name(),
                                              memory->host()});
  }
  for (auto& clique : cliques_) clique->start();
  for (auto& sensor : sensors_) sensor->start();
  for (auto& probe : probes_) probe->start();
}

void NwsSystem::stop() {
  for (auto& clique : cliques_) clique->stop();
  for (auto& sensor : sensors_) sensor->stop();
  for (auto& probe : probes_) probe->stop();
}

const TimeSeries* NwsSystem::find_series(const SeriesKey& key) const {
  for (const auto& memory : memories_) {
    if (const TimeSeries* series = memory->find(key)) return series;
  }
  return nullptr;
}

AdaptiveForecaster& NwsSystem::forecaster_state(const SeriesKey& key,
                                                const TimeSeries& series) {
  auto [it, inserted] = forecaster_cache_.try_emplace(key);
  auto& [forecaster, seen] = it->second;
  // Observe the values appended since the last query that are still in
  // the ring. A full ring drops one value per append, so size() stops
  // growing and cannot tell how many are new; appended() can.
  const std::uint64_t fresh = series.appended() - seen;
  const std::size_t first =
      fresh < series.size() ? series.size() - static_cast<std::size_t>(fresh) : 0;
  for (std::size_t i = first; i < series.size(); ++i) {
    forecaster.observe(series.at(i).value);
  }
  seen = series.appended();
  return forecaster;
}

Result<QueryReply> NwsSystem::query(const std::string& client_host, const SeriesKey& key) {
  const auto found = node(client_host);
  if (!found.ok()) return found.error();
  const NodeId client = found.value();
  const double started_at = net_.now();

  // Step 2 happens server-side: resolve the memory for this series.
  const auto memory_name = nameserver_->locate_memory(key);
  if (!memory_name.ok()) return memory_name.error();
  MemoryServer* memory = nullptr;
  for (const auto& candidate : memories_) {
    if (candidate->name() == memory_name.value()) memory = candidate.get();
  }
  if (memory == nullptr) {
    return make_error(ErrorCode::internal, "registered memory not running");
  }

  struct QueryState {
    bool done = false;
    Result<QueryReply> reply = make_error(ErrorCode::timeout, "query did not complete");
  };
  // Shared state: callbacks may fire after this function returned (e.g.
  // when the query times out), so nothing on this stack is captured by
  // reference.
  auto st = std::make_shared<QueryState>();
  NwsSystem* self = this;

  // Step 1: client -> forecaster.
  const Status sent = net_.send_message(
      client, forecaster_host_, kControlBytes,
      [self, st, memory, key, client, started_at] {
        // Step 2: forecaster <-> name server.
        self->net_.send_message(
            self->forecaster_host_, self->nameserver_->host(), kControlBytes,
            [self, st, memory, key, client, started_at] {
              self->net_.send_message(
                  self->nameserver_->host(), self->forecaster_host_, kControlBytes,
                  [self, st, memory, key, client, started_at] {
                    // Step 3: forecaster <-> memory.
                    self->net_.send_message(
                        self->forecaster_host_, memory->host(), kControlBytes,
                        [self, st, memory, key, client, started_at] {
                          const TimeSeries* series = memory->find(key);
                          const std::int64_t payload =
                              kControlBytes +
                              kPerMeasurementBytes *
                                  static_cast<std::int64_t>(
                                      series != nullptr ? series->size() : 0);
                          self->net_.send_message(
                              memory->host(), self->forecaster_host_, payload,
                              [self, st, series, key, client, started_at] {
                                if (series == nullptr || series->empty()) {
                                  st->reply = make_error(
                                      ErrorCode::not_found,
                                      "no measurements yet for " + key.to_string());
                                  st->done = true;
                                  return;
                                }
                                QueryReply result;
                                result.forecast =
                                    self->forecaster_state(key, *series).forecast();
                                result.last_measurement = series->latest().value;
                                // Step 4: forecaster -> client.
                                self->net_.send_message(
                                    self->forecaster_host_, client, kControlBytes,
                                    [self, st, result, started_at]() mutable {
                                      result.query_latency_s = self->net_.now() - started_at;
                                      st->reply = result;
                                      st->done = true;
                                    });
                              });
                        });
                  });
            });
      });
  if (!sent.ok()) return sent.error();

  // Give up after a generous simulated-time budget (a lost control
  // message would otherwise stall the caller forever).
  net_.schedule_after(120.0, [st] { st->done = true; });
  std::uint64_t steps = 0;
  while (!st->done && steps < kMaxQuerySteps && net_.step()) ++steps;
  return st->reply;
}

}  // namespace envnws::nws
