#include "nws/clique.hpp"

#include <algorithm>


namespace envnws::nws {

using simnet::NodeId;

namespace {
constexpr std::int64_t kTokenBytes = 32;
constexpr std::int64_t kStoreBytes = 64;
constexpr std::int64_t kLatencyProbeBytes = 4;  // "a 4 byte TCP socket transfer"
/// Silence, in clique periods, after which the token is declared lost.
constexpr double kRegenerationPeriods = 6.0;
}  // namespace

Clique::Clique(simnet::Network& net, CliqueSpec spec, MemoryServer& memory,
               HostLockService* locks)
    : net_(net), spec_(std::move(spec)), memory_(memory), locks_(locks) {
  spec_.members = distinct_members(spec_.members);
  if (spec_.parallel_tokens < 1) spec_.parallel_tokens = 1;
  // Parallel tokens without host locks would let experiments of this
  // clique collide with each other; refuse silently down to 1.
  if (locks_ == nullptr) spec_.parallel_tokens = 1;
}

double Clique::expected_cycle_time() const {
  return spec_.period_s * static_cast<double>(pair_count());
}

void Clique::start() {
  const std::size_t pairs = pair_count();
  if (pairs == 0) return;
  running_ = true;
  last_token_activity_ = net_.now();
  ++generation_;
  // Inject the tokens, spread across the schedule. The classic protocol
  // uses exactly one; the host-lock extension may circulate several on a
  // switched segment (disjoint-host experiments are independent there).
  const std::size_t tokens = std::min(spec_.parallel_tokens, pairs);
  for (std::size_t t = 0; t < tokens; ++t) {
    const std::size_t index = t * pairs / tokens;
    Token token{index, generation_};
    deliver_token(token, pair_at(index).first);
  }
  arm_watchdog();
}

void Clique::stop() {
  running_ = false;
  release_all_locks();
}

void Clique::release_all_locks() {
  if (locks_ == nullptr) return;
  for (const auto& [a, b] : held_locks_) locks_->release(a, b);
  held_locks_.clear();
}

void Clique::store(NodeId reporter, const SeriesKey& key, double value) {
  // The sensor ships the result to its memory server; storage happens at
  // message delivery. Results from a reporter that dies in flight are
  // dropped by the network, like the real system's lost TCP connection.
  const double measured_at = net_.now();
  net_.send_message(
      reporter, memory_.host(), kStoreBytes,
      [this, key, value, measured_at] { memory_.store(key, measured_at, value); },
      "nws-store");
}

void Clique::deliver_token(Token token, NodeId holder) {
  if (!running_ || token.generation != generation_) return;  // stale token
  last_token_activity_ = net_.now();
  last_known_index_ = token.schedule_index;
  if (!net_.host_up(holder)) return;  // holder died: watchdog will recover
  // Pace the clique: one experiment per period.
  net_.schedule_after(spec_.period_s, [this, token, holder] {
    if (!running_ || token.generation != generation_) return;
    run_experiment(token, holder);
  });
}

void Clique::finish_experiment(Token token, NodeId holder, bool release_locks, NodeId src,
                               NodeId dst) {
  if (release_locks && locks_ != nullptr) {
    locks_->release(src, dst);
    const auto it = std::find(held_locks_.begin(), held_locks_.end(), std::make_pair(src, dst));
    if (it != held_locks_.end()) held_locks_.erase(it);
  }
  pass_token(token, holder);
}

void Clique::run_experiment(Token token, NodeId holder) {
  const auto [src, dst] = pair_at(token.schedule_index % pair_count());
  if (!net_.host_up(src) || !net_.host_up(dst)) {
    pass_token(token, holder);  // skip the unmeasurable pair
    return;
  }
  // Extension: host-level locking. Both endpoints must be free before
  // the experiment may start; a busy endpoint defers the token briefly.
  if (locks_ != nullptr) {
    if (!locks_->try_acquire(src, dst)) {
      ++lock_waits_;
      net_.schedule_after(spec_.period_s * 0.25, [this, token, holder] {
        if (!running_ || token.generation != generation_) return;
        run_experiment(token, holder);
      });
      return;
    }
    held_locks_.emplace_back(src, dst);
  }
  const std::string src_name = net_.topology().node(src).name;
  const std::string dst_name = net_.topology().node(dst).name;

  // --- latency: 4-byte round trip -------------------------------------
  const double rtt_start = net_.now();
  const Status sent = net_.send_message(
      src, dst, kLatencyProbeBytes,
      [this, token, holder, src, dst, src_name, dst_name, rtt_start] {
        net_.send_message(
            dst, src, kLatencyProbeBytes,
            [this, token, holder, src, dst, src_name, dst_name, rtt_start] {
              const double rtt = (net_.now() - rtt_start) * net_.measurement_jitter();
              store(src, SeriesKey{ResourceKind::latency, src_name, dst_name}, rtt);
              // TCP connect ~ 1.5 RTT (3-way handshake).
              store(src, SeriesKey{ResourceKind::connect_time, src_name, dst_name}, 1.5 * rtt);
              // --- bandwidth: timed 64 KiB transfer ---------------------
              const auto flow = net_.start_flow(
                  src, dst, spec_.bandwidth_probe_bytes,
                  [this, token, holder, src, dst, src_name,
                   dst_name](const simnet::FlowResult& result) {
                    store(result.src, SeriesKey{ResourceKind::bandwidth, src_name, dst_name},
                          net_.timed_bandwidth(result));
                    ++experiments_;
                    finish_experiment(token, result.src, true, src, dst);
                  },
                  simnet::FlowOptions{true, "nws-bandwidth"});
              if (!flow.ok()) finish_experiment(token, holder, true, src, dst);
            },
            "nws-latency");
      },
      "nws-latency");
  if (!sent.ok()) finish_experiment(token, holder, true, src, dst);
}

void Clique::pass_token(Token token, NodeId from) {
  if (!running_ || token.generation != generation_) return;
  // Choose the next experiment whose endpoints are alive (handing the
  // token to a dead member would lose it); fall back to alive-source
  // pairs so the schedule resumes when the peer recovers.
  Token next{token.schedule_index, token.generation};
  NodeId next_holder = NodeId::invalid();
  const std::size_t pairs = pair_count();
  for (std::size_t i = 1; i <= pairs; ++i) {
    const std::size_t idx = (token.schedule_index + i) % pairs;
    if (net_.host_up(pair_at(idx).first) && net_.host_up(pair_at(idx).second)) {
      next.schedule_index = idx;
      next_holder = pair_at(idx).first;
      break;
    }
  }
  if (!next_holder.valid()) {
    for (std::size_t i = 1; i <= pairs; ++i) {
      const std::size_t idx = (token.schedule_index + i) % pairs;
      if (net_.host_up(pair_at(idx).first)) {
        next.schedule_index = idx;
        next_holder = pair_at(idx).first;
        break;
      }
    }
  }
  if (!next_holder.valid()) return;  // nobody alive; the watchdog waits
  ++token_passes_;
  if (next_holder == from) {
    deliver_token(next, next_holder);
    return;
  }
  const Status sent = net_.send_message(
      from, next_holder, kTokenBytes,
      [this, next, next_holder] { deliver_token(next, next_holder); }, "nws-token");
  // An undeliverable token (dead sender/receiver) is simply lost; the
  // watchdog below regenerates it after the silence threshold.
  (void)sent;
}

void Clique::arm_watchdog() {
  const double check_every = spec_.period_s * kRegenerationPeriods;
  net_.schedule_after(check_every, [this, check_every] {
    if (!running_) return;
    if (net_.now() - last_token_activity_ >= check_every) {
      // Token lost. Leader election: the lowest-ranked alive member
      // regenerates it (every member runs the same watchdog; the ranking
      // makes the outcome unique).
      NodeId leader = NodeId::invalid();
      for (const NodeId member : spec_.members) {
        if (net_.host_up(member)) {
          leader = member;
          break;
        }
      }
      if (leader.valid()) {
        ++regenerations_;
        ++generation_;
        // A lost token may have died mid-experiment with endpoints
        // locked: regeneration force-releases everything this clique
        // held, or the locks would leak forever.
        release_all_locks();
        // Resume the schedule at the first pair whose source is alive,
        // starting from where the ring stopped.
        Token token{last_known_index_, generation_};
        const std::size_t pairs = pair_count();
        for (std::size_t i = 0; i < pairs; ++i) {
          const std::size_t idx = (last_known_index_ + i) % pairs;
          if (net_.host_up(pair_at(idx).first)) {
            token.schedule_index = idx;
            break;
          }
        }
        deliver_token(token, pair_at(token.schedule_index).first);
      }
    }
    arm_watchdog();
  });
}

}  // namespace envnws::nws
