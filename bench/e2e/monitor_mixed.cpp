// monitor-mixed: monitord's read path (serve) and write path (ingest) in
// one run. Serve sends client exchanges over loopback TCP to the query
// server of a stopped daemon; ingest then runs measurement cycles back to
// back.
//
// Serve comes first, from the set-up's warm cycles only, so every commit
// serves the same snapshot. Ingest is time-bounded and a faster daemon
// gets through more cycles; only work_per_s reads that.
#include <sched.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <random>

#include "api/session.hpp"
#include "calibrate.hpp"
#include "env/probe_wire.hpp"
#include "monitor/daemon.hpp"
#include "monitor/query_server.hpp"
#include "simnet/network.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace envnws;
namespace wire = env::wire;

namespace {

constexpr std::uint64_t kWarmCycles = 200;
/// Exchanges pipelined in one batch: enough queued requests that the
/// server's connection thread never waits for the client within a batch,
/// few enough that every reply fits the socket buffers.
constexpr std::size_t kBatch = 16;
/// Share of the run spent serving; the rest ingests.
constexpr double kServeShare = 0.6;
/// The most time between two samples of the reference. A CPU's speed
/// holds for a few hundred milliseconds at a time, so the samples on
/// either side of a batch or a cycle nearly always ran at its speed.
constexpr double kSampleSpacingSeconds = 0.02;
constexpr double kIoTimeoutSeconds = 10.0;

/// A deployed platform with its daemon. Members are destroyed in reverse
/// order: the daemon before the session before the network, and the
/// observer the session points at last.
struct Deployed {
  StampingObserver observer;
  std::unique_ptr<simnet::Network> net;
  std::unique_ptr<api::Session> session;
  std::unique_ptr<monitor::MonitorDaemon> daemon;
};

/// One connection of the serve phase, speaking the wire protocol that
/// monitor::QueryClient speaks but with many requests in flight.
class PipelinedClient {
 public:
  explicit PipelinedClient(wire::TcpSocket socket) : socket_(std::move(socket)) {}

  /// Send `frames` (`count` encoded requests) in one write, then read one
  /// reply per request into `replies`.
  Status exchange(const std::string& frames, std::size_t count,
                  std::vector<Result<wire::WireMessage>>& replies) {
    if (auto sent = socket_.send_all(frames, kIoTimeoutSeconds); !sent.ok()) return sent;
    for (std::size_t i = 0; i < count; ++i) {
      replies.push_back(wire::recv_message(socket_, buffer_, kIoTimeoutSeconds));
      if (!replies.back().ok()) return replies.back().error();
    }
    return {};
  }

 private:
  wire::TcpSocket socket_;
  wire::FrameBuffer buffer_;
};

/// Pins the calling thread, and every thread it starts while pinned, to
/// the CPU it runs on; the destructor restores the mask it found. On a
/// shared VM each virtual CPU has its own speed from moment to moment, so
/// the query server's connection thread and the client, which times the
/// reference (calibrate.hpp) between batches, share one CPU: the
/// reference then runs where the server runs. The workload's read and
/// write paths are one thread each, so the pinning takes no parallelism
/// away from them.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Check one reply against the snapshot the daemon published: a SNAPSHOT
/// must carry its digest, a QUERY the forecast it holds for the key.
bool reply_matches(const Result<wire::WireMessage>& reply, const monitor::MonitorSnapshot& snapshot,
                   const std::string& digest, const nws::SeriesKey* key) {
  if (!reply.ok()) return false;
  if (key == nullptr) {
    auto checked = wire::expect_reply(reply, "SNAPSHOT-OK", wire::kSnapshotFrame);
    return checked.ok() && checked.value().get("digest") == digest;
  }
  auto checked = wire::expect_reply(reply, "QUERY-OK", wire::kQueryFrame);
  const monitor::PairReading* reading = snapshot.find(*key);
  if (!checked.ok() || reading == nullptr) return false;
  auto value = checked.value().f64("value");
  return value.ok() && value.value() == reading->forecast.value;
}

}  // namespace

void monitor_mixed(const Options& options, Run& run) {
  // Declared first, so the daemon's threads have ended before the mask is
  // restored.
  const PinnedToOneCpu pinned;
  const std::string spec = "dumbbell:8x8";
  monitor::MonitorOptions monitor_options;
  monitor_options.period_s = 0.01;
  auto publishes = std::make_shared<std::atomic<std::uint64_t>>(0);

  // --- set-up: map -> plan -> apply -> validate, the daemon, 200 warm
  // cycles, the query server and one served SNAPSHOT.
  std::unique_ptr<Deployed> live;
  Calibration setup(Reference::render);  // every set-up's wall time
  while (more_setups(setup.walls())) {
    live.reset();
    begin_op(options.traced);
    const auto begin = Clock::now();
    {
      ScopedSpan span("setup");
      auto scenario = make_scenario(spec, run);
      if (!scenario.has_value()) return;
      live = std::make_unique<Deployed>();
      {
        ScopedSpan build("simnet.network_build");
        live->net = std::make_unique<simnet::Network>(scenario->topology);
      }
      live->session = std::make_unique<api::Session>(*live->net, *scenario);
      if (options.traced) {
        live->session->set_probe_engine_factory(timed_sim_factory());
        live->session->set_observer(&live->observer);
      }
      if (auto status = live->session->run_all(); !status.ok()) {
        run.check(false, spec + ": deployment failed: " + status.error().to_string());
        return;
      }
      auto daemon = live->session->make_monitor(monitor_options);
      if (!daemon.ok()) {
        run.check(false, spec + ": make_monitor failed: " + daemon.error().to_string());
        return;
      }
      live->daemon = std::move(daemon.value());
      if (options.traced) live->daemon->set_observer(monitor_observer(publishes));
      auto warmed = live->daemon->run_cycles(kWarmCycles);
      auto served = live->daemon->start_query_server("127.0.0.1", 0);
      if (!warmed.ok() || !served.ok()) {
        run.check(false, spec + ": daemon warm-up or query server start failed");
        return;
      }
      auto client = monitor::QueryClient::connect("127.0.0.1", live->daemon->query_port());
      if (!client.ok()) {
        run.check(false, spec + ": connect failed: " + client.error().to_string());
        return;
      }
      auto summary = client.value().snapshot();
      run.check(summary.ok() && summary.value().digest == live->daemon->snapshot()->digest(),
                spec + ": the set-up SNAPSHOT does not match the published snapshot");
    }
    const double wall = seconds_since(begin);
    end_op();
    setup.add_op(wall);
  }
  if (!run.correct()) return;
  monitor::MonitorDaemon& daemon = *live->daemon;
  simnet::Network& net = *live->net;
  const std::uint64_t setup_requests = 1;
  const std::uint64_t probes_before = daemon.measurements() + daemon.probe_failures();
  const std::uint64_t failures_before = daemon.probe_failures();

  // --- serve: batches of kBatch exchanges, each a SNAPSHOT and then a
  // QUERY of one pair, as examples/envnws_monitord --query asks them. A
  // batch's requests go out in one write and its replies are read as they
  // come, so the server's connection thread works through the queue
  // without waiting on the client or on a wake-up: a batch's time is the
  // read path's own work. Keys are uniform over the snapshot's pairs.
  const std::shared_ptr<const monitor::MonitorSnapshot> snapshot = daemon.snapshot();
  const std::string digest = snapshot->digest();
  run.check(!snapshot->pairs.empty(), spec + ": the snapshot holds no pairs to query");
  if (!run.correct()) return;
  const std::string snapshot_frame =
      wire::encode_frame(wire::WireMessage(std::string(wire::kSnapshotFrame)).serialize());
  std::vector<std::string> query_frames;
  for (const monitor::PairReading& pair : snapshot->pairs) {
    wire::WireMessage message{std::string(wire::kQueryFrame)};
    message.add("resource", nws::to_string(pair.key.resource));
    message.add("src", pair.key.src);
    if (!pair.key.dst.empty()) message.add("dst", pair.key.dst);
    query_frames.push_back(wire::encode_frame(message.serialize()));
  }
  std::mt19937_64 rng(options.seed);
  std::uniform_int_distribution<std::size_t> pick(0, snapshot->pairs.size() - 1);

  // One connection serves the whole phase. The reference is timed on this
  // thread between batches, while the server's connection thread waits
  // for the next batch and the acceptor sleeps, so no program code runs
  // beside it. A traced batch sends its SNAPSHOTs, then its QUERYs, and
  // times the two halves.
  auto socket = wire::TcpSocket::dial("127.0.0.1", daemon.query_port(), kIoTimeoutSeconds);
  if (!socket.ok()) {
    run.check(false, spec + ": connect failed: " + socket.error().to_string());
    return;
  }
  PipelinedClient client(std::move(socket.value()));
  double snapshot_part_s = 0.0, pair_part_s = 0.0, traced_batch_s = 0.0;
  std::uint64_t exchanges = 0, bad_replies = 0;
  Calibration serve(Reference::render);  // every batch's time per exchange
  serve.sample();
  std::vector<Result<wire::WireMessage>> replies;
  std::vector<std::size_t> keys(kBatch);
  const auto serve_start = Clock::now();
  for (int i = 0; i < 2 || seconds_since(serve_start) < kServeShare * options.seconds; ++i) {
    const bool traced = options.traced && i % 2 == 0;
    std::string frames, snapshots, queries;
    for (std::size_t& key : keys) {
      key = pick(rng);
      if (traced) {
        snapshots += snapshot_frame;
        queries += query_frames[key];
      } else {
        frames += snapshot_frame;
        frames += query_frames[key];
      }
    }
    replies.clear();
    Status status;
    const auto begin = Clock::now();
    if (!traced) {
      status = client.exchange(frames, 2 * kBatch, replies);
    } else {
      status = client.exchange(snapshots, kBatch, replies);
      const auto half = Clock::now();
      if (status.ok()) status = client.exchange(queries, kBatch, replies);
      const auto done = Clock::now();
      const std::uint64_t op = Tracer::instance().new_op_id();
      Tracer::instance().set_enabled(true);
      Tracer::instance().record_root("query.snapshot", op, to_ns(begin), to_ns(half));
      Tracer::instance().record_root("query.pair", op, to_ns(half), to_ns(done));
      Tracer::instance().set_enabled(false);
      snapshot_part_s += std::chrono::duration<double>(half - begin).count();
      pair_part_s += std::chrono::duration<double>(done - half).count();
    }
    const double wall = seconds_since(begin);
    if (!status.ok()) {
      run.check(false, spec + ": exchange failed: " + status.error().to_string());
      return;
    }
    // Outside the timed region: every reply against the snapshot.
    for (std::size_t k = 0; k < kBatch; ++k) {
      const nws::SeriesKey& key = snapshot->pairs[keys[k]].key;
      const std::size_t snapshot_reply = traced ? k : 2 * k;
      const std::size_t query_reply = traced ? kBatch + k : 2 * k + 1;
      if (!reply_matches(replies[snapshot_reply], *snapshot, digest, nullptr)) ++bad_replies;
      if (!reply_matches(replies[query_reply], *snapshot, digest, &key)) ++bad_replies;
    }
    exchanges += kBatch;
    const double per_exchange = wall / static_cast<double>(kBatch);
    serve.add_op(per_exchange, kSampleSpacingSeconds);
    if (traced) traced_batch_s += wall;
  }
  serve.sample();

  // --- serve checks, outside every timed region.
  auto last_client = monitor::QueryClient::connect("127.0.0.1", daemon.query_port());
  if (!last_client.ok()) {
    run.check(false, spec + ": connect failed: " + last_client.error().to_string());
    return;
  }
  auto final_summary = last_client.value().snapshot();
  run.check(final_summary.ok() && final_summary.value().digest == daemon.snapshot()->digest(),
            spec + ": the served SNAPSHOT digest differs from the published snapshot's");
  const std::uint64_t requests = 2 * exchanges;
  run.check(daemon.queries_served() == setup_requests + requests + 1,
            spec + ": the server counted " + std::to_string(daemon.queries_served()) +
                " queries, the client sent " + std::to_string(setup_requests + requests + 1));
  run.check(bad_replies == 0, spec + ": " + std::to_string(bad_replies) + " of " +
                                  std::to_string(requests) +
                                  " replies failed or differ from the published snapshot");
  run.attempted = requests;
  run.failed = bad_replies;
  if (!run.correct()) return;

  // --- ingest: one cycle per op, closed loop.
  std::vector<double> traced_cycles, plain_cycles;
  double flows = 0, messages = 0, traced_ops = 0;
  const std::uint64_t measurements_before = daemon.measurements();
  const std::uint64_t publishes_before = publishes->load();
  Calibration ingest(Reference::render);  // every cycle's wall time
  ingest.sample();
  const auto ingest_start = Clock::now();
  for (int i = 0; seconds_since(ingest_start) < (1.0 - kServeShare) * options.seconds || i < 2;
       ++i) {
    const bool traced = options.traced && i % 2 == 0;
    const std::uint64_t flows_before = net.stats().flows_started;
    const std::uint64_t messages_before = net.stats().messages_sent;
    begin_op(traced);
    const auto begin = Clock::now();
    Status status;
    {
      ScopedSpan span("cycle");
      status = daemon.run_cycles(1);
    }
    const double wall = seconds_since(begin);
    end_op();
    ingest.add_op(wall, kSampleSpacingSeconds);
    if (!status.ok()) {
      run.check(false, spec + ": cycle failed: " + status.error().to_string());
      return;
    }
    (traced ? traced_cycles : plain_cycles).push_back(wall);
    if (traced) {
      flows += static_cast<double>(net.stats().flows_started - flows_before);
      messages += static_cast<double>(net.stats().messages_sent - messages_before);
      ++traced_ops;
    }
  }
  ingest.sample();
  const std::vector<double>& cycle_walls = ingest.walls();
  const double ingested = static_cast<double>(daemon.measurements() - measurements_before);
  const double cycle_publishes = static_cast<double>(publishes->load() - publishes_before);

  const std::uint64_t probe_failures = daemon.probe_failures() - failures_before;
  run.check(probe_failures == 0,
            spec + ": " + std::to_string(probe_failures) + " monitor probes failed");
  run.attempted += daemon.measurements() + daemon.probe_failures() - probes_before;
  run.failed += probe_failures;
  if (!run.correct()) return;

  run.detail("cycles", static_cast<double>(cycle_walls.size()), "count");
  run.detail("cycle_s_p50", median(cycle_walls), "s");
  run.detail("cycle_s_p99", quantile(cycle_walls, 0.99), "s");
  run.detail("exchanges", static_cast<double>(exchanges), "count");
  run.detail("exchange_s_p90", quantile(serve.walls(), 0.9), "s");

  if (!options.traced) {
    const auto total = [](const std::vector<double>& walls) {
      return std::accumulate(walls.begin(), walls.end(), 0.0);
    };
    EndToEnd measured;
    measured.setup_s = measure(setup, median);
    measured.op_s = measure(serve, median);
    measured.work_per_s =
        measure(ingest, [&](const std::vector<double>& walls) { return ingested / total(walls); });
    add_e2e_metrics(run, measured);
    return;
  }
  LayerInputs inputs;
  inputs.flows_per_op = flows / traced_ops;
  inputs.messages_per_op = messages / traced_ops;
  inputs.snapshot_publishes_per_cycle = cycle_publishes / static_cast<double>(cycle_walls.size());
  inputs.queries_served = static_cast<double>(daemon.queries_served());
  inputs.query_snapshot_share = snapshot_part_s / traced_batch_s;
  inputs.query_pair_share = pair_part_s / traced_batch_s;
  inputs.overhead_ratio = overhead_ratio(traced_cycles, plain_cycles);
  add_layer_metrics(run, "cycle", inputs);
}

}  // namespace e2e
