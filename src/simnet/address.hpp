// IPv4 addresses with the classful and RFC1918 vocabulary ENV needs.
//
// ENV falls back to "IP address class" grouping when reverse DNS fails
// (paper §4.3, "Machines without hostname"), and must keep non-routable
// (private) addresses in the mapping instead of discarding them. This
// module provides exactly that address arithmetic.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace envnws::simnet {

class Ipv4 {
 public:
  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t value) : value_(value) {}
  constexpr Ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((std::uint32_t(a) << 24) | (std::uint32_t(b) << 16) | (std::uint32_t(c) << 8) |
               std::uint32_t(d)) {}

  static Result<Ipv4> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool is_zero() const { return value_ == 0; }
  [[nodiscard]] std::string to_string() const;

  /// Classful network class per RFC 791 / RFC 1166: 'A', 'B', 'C', 'D', 'E'.
  [[nodiscard]] char address_class() const;
  /// The classful network prefix (what ENV groups unnamed machines by):
  /// class A -> /8, class B -> /16, class C -> /24.
  [[nodiscard]] Ipv4 classful_network() const;
  /// Same classful network as `other`.
  [[nodiscard]] bool same_classful_network(Ipv4 other) const;

  friend constexpr bool operator==(Ipv4 a, Ipv4 b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(Ipv4 a, Ipv4 b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(Ipv4 a, Ipv4 b) { return a.value_ < b.value_; }

 private:
  std::uint32_t value_ = 0;
};

}  // namespace envnws::simnet
