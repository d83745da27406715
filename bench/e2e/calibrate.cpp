#include "calibrate.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "report.hpp"

namespace e2e {

namespace {

/// The references' times on the baseline machine, from pilot runs made
/// before the committed baseline (its fastest spells: the median of a
/// crowded hour is about 1.5 times these).
constexpr double kNominalComputeSeconds = 0.0052;
constexpr double kNominalRenderSeconds = 0.0036;

constexpr std::size_t kKeys = 2000;
/// 4 MiB of doubles: more than a core's L2, so the pass runs from the
/// shared cache and slows, as the program does, when other guests on the
/// host crowd it.
constexpr std::size_t kCapacities = std::size_t{1} << 19;
constexpr std::size_t kHeapLimit = 256;

/// A SNAPSHOT reply renders every pair of the snapshot; dumbbell:8x8 has 114.
constexpr int kRenderLines = 114;
constexpr int kRenderFields = 6;
/// Renders per render timing.
constexpr int kRenders = 8;
/// Each reference is timed this many times per sample and the median
/// kept, so a preemption during one timing does not skew the ops on
/// either side of the sample.
constexpr std::size_t kTimingsPerSample = 3;

/// Full precision, as the program renders a double.
std::string full(double value) {
  char out[40];
  std::snprintf(out, sizeof(out), "%.17g", value);
  return out;
}

/// Render kRenderLines lines of full-precision doubles as text through a
/// string stream and hash the text (FNV-1a), as a SNAPSHOT reply renders
/// and hashes the snapshot. It builds its strings on the heap as a reply
/// does: a render into fixed storage slowed differently from the exchange
/// when the machine got crowded (over four runs the ratio of the two
/// moved 3.2%, against 1.1% for this one).
std::uint64_t render_and_hash() {
  std::ostringstream out;
  out << "snapshot v" << kRenderLines << "\n";
  for (int line = 0; line < kRenderLines; ++line) {
    const std::string key =
        "bandwidth:h" + std::to_string(line) + ".lan->h" + std::to_string(line + 1) + ".lan";
    out << key << " t=" << full(line * 0.01);
    for (int field = 0; field < kRenderFields; ++field) {
      out << " f" << field << "=" << full((line + 1) * 1.37e6 / (field + 1.3));
    }
    out << " winner=sliding_median samples=" << 64 + line << "\n";
  }
  const std::string text = out.str();
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The calling thread's CPU time. The reference is timed on this clock, not
/// the wall clock: a slow spell of the CPU stretches both, but a program
/// thread sharing the CPU (one that polls, say) stretches only the wall
/// time, and must not slow the reference its own ops are divided by.
double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

volatile double g_sink = 0.0;

}  // namespace

Calibration::Calibration(Reference reference) : reference_(reference) {
  samples_.reserve(1024);
  if (reference_ != Reference::render) {
    keys_.resize(kKeys);
    order_.resize(kKeys);
    capacity_.resize(kCapacities);
    heap_.resize(kHeapLimit + 1);
  }
}

/// A small stand-in for the mapper's mix: sorting strings (name-keyed
/// bookkeeping), passes over a vector of doubles (the fluid solver) and a
/// binary heap (the event queue). Works in the storage the constructor
/// allocated: no allocator call.
double Calibration::compute_kernel() {
  for (std::size_t i = 0; i < kKeys; ++i) {
    std::snprintf(keys_[i].data(), keys_[i].size(), "h%05zu.site%zu.example", (i * 7919) % kKeys,
                  i % 7);
    order_[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(order_.begin(), order_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return std::strcmp(keys_[a].data(), keys_[b].data()) < 0;
  });
  double sum = 0.0;
  for (std::size_t rank = 0; rank < kKeys; ++rank) {
    sum += static_cast<double>(rank) * static_cast<double>(std::strlen(keys_[order_[rank]].data()));
  }

  for (std::size_t i = 0; i < kCapacities; ++i) {
    capacity_[i] = 1.0 + static_cast<double>((i * 2654435761u) % 1000);
  }
  for (int round = 0; round < 3; ++round) {
    const double least = *std::min_element(capacity_.begin(), capacity_.end());
    for (double& c : capacity_) c = c - 0.5 * least + 1.0;
    sum += least;
  }

  std::size_t size = 0;
  for (int i = 0; i < 20000; ++i) {
    heap_[size++] = {static_cast<double>((i * 40503) % 65536), i};
    std::push_heap(heap_.begin(), heap_.begin() + static_cast<std::ptrdiff_t>(size));
    if (size > kHeapLimit) {
      sum += heap_.front().first;
      std::pop_heap(heap_.begin(), heap_.begin() + static_cast<std::ptrdiff_t>(size));
      --size;
    }
  }
  return sum;
}

/// One sample of the reference, in seconds of the calling thread's CPU
/// time.
double Calibration::time_reference() {
  std::array<double, kTimingsPerSample> timings{};
  for (double& timing : timings) {
    const double begin = thread_cpu_seconds();
    if (reference_ != Reference::render) g_sink = g_sink + compute_kernel();
    if (reference_ != Reference::compute) {
      std::uint64_t hash = 0;
      for (int render = 0; render < kRenders; ++render) hash ^= render_and_hash();
      g_sink = g_sink + static_cast<double>(hash & 1);
    }
    timing = thread_cpu_seconds() - begin;
  }
  std::sort(timings.begin(), timings.end());
  return timings[kTimingsPerSample / 2];
}

void Calibration::sample() {
  samples_.push_back(time_reference());
  last_ = Clock::now();
}

void Calibration::add_op(double wall_s, double spacing_s) {
  walls_.push_back(wall_s);
  next_sample_.push_back(samples_.size());
  if (samples_.empty() || std::chrono::duration<double>(Clock::now() - last_).count() >= spacing_s) {
    sample();
  }
}

double Calibration::nominal() const {
  switch (reference_) {
    case Reference::compute:
      return kNominalComputeSeconds;
    case Reference::render:
      return kNominalRenderSeconds;
    case Reference::compute_and_render:
      break;
  }
  return kNominalComputeSeconds + kNominalRenderSeconds;
}

std::vector<double> Calibration::at_reference() const {
  const double nominal_s = nominal();
  std::vector<double> out;
  out.reserve(walls_.size());
  for (std::size_t i = 0; i < walls_.size(); ++i) {
    const std::size_t after = next_sample_[i];
    double sum = 0.0;
    int count = 0;
    if (after > 0) {
      sum += samples_[after - 1];
      ++count;
    }
    if (after < samples_.size()) {
      sum += samples_[after];
      ++count;
    }
    out.push_back(count == 0 ? walls_[i] : walls_[i] / (sum / count / nominal_s));
  }
  return out;
}

double Calibration::slowdown() const {
  return samples_.empty() ? 1.0 : median(samples_) / nominal();
}

}  // namespace e2e
