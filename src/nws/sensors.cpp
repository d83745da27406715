#include "nws/sensors.hpp"

namespace envnws::nws {

namespace {
constexpr std::int64_t kStoreBytes = 64;
}

HostSensor::HostSensor(simnet::Network& net, simnet::NodeId host, MemoryServer& memory,
                       double period_s)
    : net_(net),
      host_(host),
      memory_(memory),
      period_s_(period_s),
      host_name_(net.topology().node(host).name) {}

void HostSensor::start() {
  running_ = true;
  tick();
}

void HostSensor::tick() {
  if (!running_) return;
  net_.schedule_after(period_s_, [this] {
    if (!running_) return;
    if (net_.host_up(host_)) {
      const double now = net_.now();
      const double jitter = net_.measurement_jitter();
      const auto ship = [this](ResourceKind kind, double value) {
        net_.send_message(
            host_, memory_.host(), kStoreBytes,
            [this, kind, value, at = net_.now()] {
              memory_.store(SeriesKey{kind, host_name_, ""}, at, value);
            },
            "nws-store");
      };
      ship(ResourceKind::cpu, net_.cpu_availability(host_, now) * jitter);
      ship(ResourceKind::memory, net_.memory_free_mb(host_, now));
      ship(ResourceKind::disk, net_.disk_free_mb(host_, now));
      readings_ += 3;
    }
    tick();
  });
}

UncoordinatedProbe::UncoordinatedProbe(simnet::Network& net, simnet::NodeId src,
                                       simnet::NodeId dst, MemoryServer& memory,
                                       double period_s, std::int64_t probe_bytes)
    : net_(net),
      src_(src),
      dst_(dst),
      memory_(memory),
      period_s_(period_s),
      probe_bytes_(probe_bytes) {}

void UncoordinatedProbe::start() {
  running_ = true;
  tick();
}

void UncoordinatedProbe::tick() {
  if (!running_) return;
  net_.schedule_after(period_s_, [this] {
    if (!running_) return;
    const std::string src_name = net_.topology().node(src_).name;
    const std::string dst_name = net_.topology().node(dst_).name;
    net_.start_flow(
        src_, dst_, probe_bytes_,
        [this, src_name, dst_name](const simnet::FlowResult& result) {
          memory_.store(SeriesKey{ResourceKind::bandwidth, src_name, dst_name}, net_.now(),
                        net_.timed_bandwidth(result));
          ++experiments_;
        },
        simnet::FlowOptions{true, "nws-uncoordinated"});
    tick();
  });
}

}  // namespace envnws::nws
