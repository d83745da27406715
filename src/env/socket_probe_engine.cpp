#include "env/socket_probe_engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>

#include "common/codec.hpp"
#include "common/strings.hpp"
#include "env/batch_schedule.hpp"
#include "testing/virtual_scheduler.hpp"

namespace envnws::env {

namespace {

using Clock = std::chrono::steady_clock;

Error with_agent_context(const wire::AgentEndpoint& endpoint, Error error) {
  error.message = "probe agent '" + endpoint.host + "' (" + endpoint.address + ":" +
                  std::to_string(endpoint.port) + "): " + error.message;
  return error;
}

}  // namespace

SocketProbeEngine::SocketProbeEngine(wire::AgentRoster roster, const MapperOptions& options,
                                     SocketEngineOptions socket_options)
    : roster_(std::move(roster)), options_(options), socket_options_(socket_options) {}

SocketProbeEngine::~SocketProbeEngine() = default;

Result<wire::AgentEndpoint> SocketProbeEngine::resolve(const std::string& host) const {
  if (const wire::AgentEndpoint* endpoint = roster_.find(host)) return *endpoint;
  return make_error(ErrorCode::not_found,
                    "host '" + host + "' not in agent roster '" + roster_.source + "'");
}

Result<std::unique_ptr<SocketProbeEngine::AgentConn>> SocketProbeEngine::acquire(
    const std::string& host) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto pooled = pool_.find(host);
    if (pooled != pool_.end() && !pooled->second.empty()) {
      auto conn = std::move(pooled->second.back());
      pooled->second.pop_back();
      --idle_count_;
      conn->reused = true;
      return conn;
    }
  }
  auto endpoint = resolve(host);
  if (!endpoint.ok()) return endpoint.error();
  auto socket = wire::TcpSocket::dial(endpoint.value().address, endpoint.value().port,
                                      socket_options_.connect_timeout_s);
  if (!socket.ok()) return with_agent_context(endpoint.value(), socket.error());
  auto conn = std::make_unique<AgentConn>();
  conn->socket = std::move(socket.value());
  return conn;
}

void SocketProbeEngine::release(const std::string& host, std::unique_ptr<AgentConn> conn) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Global LRU bound, not a per-host quota: the connection just used is
  // always the hottest, so it pools unconditionally and the
  // least-recently-released idle connection anywhere pays for it. A
  // fleet of thousands of agents thus costs at most max_idle_sockets
  // idle fds, while hosts probed in a tight loop keep their connection.
  conn->reused = false;
  conn->released_at = ++release_serial_;
  pool_[host].push_back(std::move(conn));
  ++idle_count_;
  const std::size_t bound = std::max<std::size_t>(socket_options_.max_idle_sockets, 1);
  while (idle_count_ > bound) {
    auto oldest_host = pool_.end();
    std::size_t oldest_slot = 0;
    std::uint64_t oldest_stamp = ~std::uint64_t(0);
    for (auto it = pool_.begin(); it != pool_.end(); ++it) {
      for (std::size_t slot = 0; slot < it->second.size(); ++slot) {
        if (it->second[slot]->released_at < oldest_stamp) {
          oldest_stamp = it->second[slot]->released_at;
          oldest_host = it;
          oldest_slot = slot;
        }
      }
    }
    if (oldest_host == pool_.end()) break;  // unreachable: idle_count_ > 0
    oldest_host->second.erase(oldest_host->second.begin() +
                              static_cast<std::ptrdiff_t>(oldest_slot));
    if (oldest_host->second.empty()) pool_.erase(oldest_host);
    --idle_count_;
  }
}

void SocketProbeEngine::drop_pool(const std::string& host) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pool_.find(host);
  if (it == pool_.end()) return;
  idle_count_ -= it->second.size();
  pool_.erase(it);
}

std::size_t SocketProbeEngine::idle_sockets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idle_count_;
}

Result<wire::WireMessage> SocketProbeEngine::round_trip(const std::string& host,
                                                        const wire::WireMessage& request,
                                                        double timeout_s) {
  auto endpoint = resolve(host);
  if (!endpoint.ok()) return endpoint.error();
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto conn = acquire(host);
    if (!conn.ok()) return conn.error();
    const bool reused = conn.value()->reused;
    Error failure;
    if (auto sent = wire::send_frame(conn.value()->socket, request.serialize(),
                                     socket_options_.frame_timeout_s);
        !sent.ok()) {
      failure = sent.error();
    } else if (auto reply = wire::recv_message(conn.value()->socket, conn.value()->buffer,
                                               timeout_s);
               !reply.ok()) {
      failure = reply.error();
    } else {
      release(host, std::move(conn.value()));
      Error agent_error;
      if (wire::is_error(reply.value(), agent_error)) {
        return with_agent_context(endpoint.value(), agent_error);
      }
      return reply;
    }
    // A POOLED connection may have idled past the agent's own I/O
    // timeout and been closed server-side: that is staleness, not a
    // dead agent. Flush the host's pool (its siblings are equally old)
    // and redial once; failures on a fresh connection are real.
    if (reused && failure.code == ErrorCode::unreachable && attempt == 0) {
      drop_pool(host);
      continue;
    }
    return with_agent_context(endpoint.value(), failure);
  }
  return make_error(ErrorCode::internal, "round_trip retry loop fell through");
}

Result<HostIdentity> SocketProbeEngine::lookup(const std::string& hostname) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto cached = identities_.find(hostname);
    if (cached != identities_.end()) return cached->second;
  }
  auto reply = wire::expect_reply(round_trip(hostname,
                                             wire::WireMessage("HELLO").add("name", hostname),
                                             socket_options_.frame_timeout_s),
                                  "HELLO-OK", "HELLO");
  if (!reply.ok()) return reply.error();
  HostIdentity identity;
  identity.fqdn = reply.value().get("fqdn");
  identity.ip = reply.value().get("ip");
  for (const auto& pair : strings::split_nonempty(reply.value().get("props"), ',')) {
    const auto colon = pair.find(':');
    if (colon == std::string::npos) {
      return make_error(ErrorCode::protocol, "bad HELLO-OK property token '" + pair + "'");
    }
    auto key = codec::unescape(pair.substr(0, colon));
    auto value = codec::unescape(pair.substr(colon + 1));
    if (!key.ok()) return key.error();
    if (!value.ok()) return value.error();
    identity.properties[key.value()] = value.value();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  identities_[hostname] = identity;
  return identity;
}

Result<std::vector<TraceHop>> SocketProbeEngine::traceroute(const std::string& from,
                                                            const std::string& target) {
  // Only the viewpoint needs a live agent; user-level TCP agents cannot
  // play TTL games, so the route is reported as direct (the structural
  // tree degenerates to one flat segment — docs/SOCKET_ENGINE.md).
  if (auto source = resolve(from); !source.ok()) return source.error();
  TraceHop hop;
  hop.name = target;
  hop.responded = true;
  if (roster_.find(target) != nullptr) {
    if (auto identity = lookup(target); identity.ok()) {
      hop.ip = identity.value().ip;
      if (!identity.value().fqdn.empty()) hop.name = identity.value().fqdn;
    }
  }
  return std::vector<TraceHop>{hop};
}

SocketProbeEngine::Measured SocketProbeEngine::measure(const BandwidthRequest& request,
                                                       int streams) {
  Measured measured;
  auto source = resolve(request.from);
  if (!source.ok()) {
    measured.bandwidth_bps = source.error();
    return measured;
  }
  auto sink = resolve(request.to);
  if (!sink.ok()) {
    measured.bandwidth_bps = sink.error();
    return measured;
  }
  wire::WireMessage transfer("BWXFER");
  transfer.add("to", sink.value().address);
  transfer.add_u64("port", sink.value().port);
  transfer.add_u64("bytes", static_cast<std::uint64_t>(std::max<std::int64_t>(
                                options_.probe_bytes, 1)));
  transfer.add_u64("streams", static_cast<std::uint64_t>(std::max(streams, 1)));
  auto reply = wire::expect_reply(round_trip(request.from, transfer,
                                             socket_options_.transfer_timeout_s),
                                  "BWXFER-OK", "BWXFER");
  if (!reply.ok()) {
    measured.bandwidth_bps = reply.error();
    return measured;
  }
  auto bps = reply.value().f64("bps");
  auto seconds = reply.value().f64("seconds");
  if (!bps.ok()) {
    measured.bandwidth_bps = bps.error();
    return measured;
  }
  if (!seconds.ok()) {
    measured.bandwidth_bps = seconds.error();
    return measured;
  }
  if (!(bps.value() > 0.0) || !(seconds.value() > 0.0)) {
    measured.bandwidth_bps = Result<double>(
        make_error(ErrorCode::protocol, "BWXFER-OK reports a non-positive measurement"));
    return measured;
  }
  measured.bandwidth_bps = bps.value();
  measured.seconds = seconds.value();
  measured.bytes = std::max<std::int64_t>(options_.probe_bytes, 1);
  return measured;
}

void SocketProbeEngine::run_experiment(const ProbeExperiment& experiment,
                                       ProbeExperimentOutcome& outcome, StatsDelta& delta) {
  delta = StatsDelta{};
  outcome = ProbeExperimentOutcome{};
  if (experiment.transfers.empty()) {
    outcome.results.push_back(Result<double>(
        make_error(ErrorCode::invalid_argument, "batch experiment carries no transfers")));
    return;
  }
  delta.experiments = 1;
  if (experiment.kind == ProbeExperiment::Kind::bandwidth || experiment.transfers.size() == 1) {
    const Measured measured = measure(experiment.transfers.front(), 1);
    if (measured.bandwidth_bps.ok()) {
      delta.bytes += measured.bytes;
      delta.busy_s += measured.seconds;
    }
    outcome.results.push_back(measured.bandwidth_bps);
  } else {
    // Start every transfer of the experiment at (as close as sockets
    // allow) the same instant, each on its own control connection. The
    // engine-declared stream count — how many transfers of THIS
    // experiment share a source — lets fixed-rate agents model source
    // fair-share deterministically.
    std::vector<Measured> measurements(experiment.transfers.size());
    std::vector<std::thread> threads;
    threads.reserve(experiment.transfers.size());
    for (std::size_t i = 0; i < experiment.transfers.size(); ++i) {
      int streams = 0;
      for (const auto& other : experiment.transfers) {
        if (other.from == experiment.transfers[i].from) ++streams;
      }
      threads.emplace_back([this, &experiment, &measurements, i, streams] {
        measurements[i] = measure(experiment.transfers[i], streams);
      });
    }
    for (auto& thread : threads) thread.join();
    double longest_s = 0.0;
    for (const auto& measured : measurements) {
      if (measured.bandwidth_bps.ok()) {
        delta.bytes += measured.bytes;
        longest_s = std::max(longest_s, measured.seconds);
      }
      outcome.results.push_back(measured.bandwidth_bps);
    }
    delta.busy_s += longest_s;
  }
  // The paper's settle gap between experiments: really waited out here
  // (a live network needs to drain), and part of the experiment's busy
  // time like the simulator's accounting.
  if (options_.stabilization_gap_s > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.stabilization_gap_s));
  }
  delta.busy_s += std::max(options_.stabilization_gap_s, 0.0);
  outcome.duration_s = delta.busy_s;
}

void SocketProbeEngine::apply(const StatsDelta& delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.experiments += delta.experiments;
  stats_.bytes_sent += delta.bytes;
  stats_.busy_time_s += delta.busy_s;
}

Result<double> SocketProbeEngine::bandwidth(const std::string& from, const std::string& to) {
  ProbeExperimentOutcome outcome;
  StatsDelta delta;
  run_experiment(ProbeExperiment::single(from, to), outcome, delta);
  apply(delta);
  return outcome.results.front();
}

std::vector<Result<double>> SocketProbeEngine::concurrent_bandwidth(
    const std::vector<BandwidthRequest>& requests) {
  ProbeExperimentOutcome outcome;
  StatsDelta delta;
  run_experiment(ProbeExperiment::concurrent(requests), outcome, delta);
  apply(delta);
  return outcome.results;
}

std::vector<ProbeExperimentOutcome> SocketProbeEngine::run_batch(
    const std::vector<ProbeExperiment>& experiments, std::size_t workers) {
  std::vector<ProbeExperimentOutcome> outcomes(experiments.size());
  std::vector<StatsDelta> deltas(experiments.size());
  workers = std::min(workers, experiments.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < experiments.size(); ++i) {
      run_experiment(experiments[i], outcomes[i], deltas[i]);
      apply(deltas[i]);
    }
    return outcomes;
  }

  // The realized batch schedule: the same greedy rule batch_makespan
  // models, on the same bookkeeping (BatchDispatcher) — whenever a
  // worker is free, the first not-yet-started experiment none of whose
  // endpoints is in flight starts (later experiments may overtake a
  // blocked one; their disjointness is what the batch asserts). Stats
  // are folded canonically afterwards, so the cumulative counters — and
  // with them MapStats and the identity digest — cannot depend on
  // completion order. With a virtual scheduler attached, "which
  // startable experiment does this free worker take" becomes the
  // scheduler's decision instead of canonical-first — the seam the
  // exploration harness and the agent-death tests drive. pick() runs
  // under schedule_mutex, so the scheduler sees a serialized decision
  // stream even with real worker threads.
  std::mutex schedule_mutex;
  std::condition_variable schedule_cv;
  BatchDispatcher dispatcher(experiments);

  const auto worker_loop = [&] {
    std::unique_lock<std::mutex> lock(schedule_mutex);
    while (!dispatcher.all_started()) {
      const auto ready = dispatcher.startable();
      if (ready.empty()) {
        // Everything pending conflicts with something in flight; wait
        // for a completion to free its endpoints.
        schedule_cv.wait(lock);
        continue;
      }
      std::size_t picked = ready.front();
      if (scheduler_ != nullptr) {
        testing::DecisionPoint point;
        point.point = "socket";
        point.ready.reserve(ready.size());
        for (const std::size_t i : ready) {
          std::string label = "experiment #" + std::to_string(i);
          if (!experiments[i].transfers.empty()) {
            label += " " + experiments[i].transfers.front().from + "->" +
                     experiments[i].transfers.front().to;
          }
          point.ready.push_back(testing::ReadyTask{i, std::move(label)});
        }
        picked = ready[scheduler_->pick(point)];
      }
      dispatcher.start(picked);
      lock.unlock();
      run_experiment(experiments[picked], outcomes[picked], deltas[picked]);
      lock.lock();
      dispatcher.finish(picked);
      schedule_cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker_loop);
  for (auto& thread : threads) thread.join();

  for (const auto& delta : deltas) apply(delta);
  return outcomes;
}

ProbeStats SocketProbeEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace envnws::env
