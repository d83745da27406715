// Unit helpers. All simulator-internal quantities use SI base units:
// seconds for time, bits/second for bandwidth, bytes for payload sizes.
// These helpers exist so call sites read like the paper ("a 10 Mbps hub",
// "64 Kb messages") instead of raw magic numbers.
#pragma once

#include <cstdint>

namespace envnws::units {

// --- bandwidth (bits per second) ---
constexpr double mbps(double v) { return v * 1e6; }
constexpr double gbps(double v) { return v * 1e9; }
constexpr double to_mbps(double bits_per_sec) { return bits_per_sec / 1e6; }

// --- payload sizes (bytes) ---
constexpr std::int64_t kib(std::int64_t v) { return v * 1024; }
constexpr std::int64_t mib(std::int64_t v) { return v * 1024 * 1024; }

// --- time (seconds) ---
constexpr double usec(double v) { return v * 1e-6; }
constexpr double minutes(double v) { return v * 60.0; }
constexpr double days(double v) { return v * 86400.0; }

}  // namespace envnws::units
