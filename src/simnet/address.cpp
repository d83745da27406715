#include "simnet/address.hpp"

#include <cstdio>

#include "common/strings.hpp"

namespace envnws::simnet {

Result<Ipv4> Ipv4::parse(std::string_view text) {
  const auto parts = strings::split(text, '.');
  if (parts.size() != 4) {
    return make_error(ErrorCode::invalid_argument,
                      "not a dotted quad: '" + std::string(text) + "'");
  }
  std::uint32_t value = 0;
  for (const auto& part : parts) {
    if (part.empty() || part.size() > 3) {
      return make_error(ErrorCode::invalid_argument,
                        "bad octet in '" + std::string(text) + "'");
    }
    int octet = 0;
    for (char c : part) {
      if (c < '0' || c > '9') {
        return make_error(ErrorCode::invalid_argument,
                          "bad octet in '" + std::string(text) + "'");
      }
      octet = octet * 10 + (c - '0');
    }
    if (octet > 255) {
      return make_error(ErrorCode::invalid_argument,
                        "octet out of range in '" + std::string(text) + "'");
    }
    value = (value << 8) | static_cast<std::uint32_t>(octet);
  }
  return Ipv4(value);
}

std::string Ipv4::to_string() const {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%u.%u.%u.%u", (value_ >> 24) & 0xff,
                (value_ >> 16) & 0xff, (value_ >> 8) & 0xff, value_ & 0xff);
  return buffer;
}

char Ipv4::address_class() const {
  const std::uint32_t top = value_ >> 24;
  if (top < 128) return 'A';
  if (top < 192) return 'B';
  if (top < 224) return 'C';
  if (top < 240) return 'D';
  return 'E';
}

Ipv4 Ipv4::classful_network() const {
  switch (address_class()) {
    case 'A': return Ipv4(value_ & 0xff000000u);
    case 'B': return Ipv4(value_ & 0xffff0000u);
    default: return Ipv4(value_ & 0xffffff00u);
  }
}

bool Ipv4::same_classful_network(Ipv4 other) const {
  return classful_network() == other.classful_network();
}

}  // namespace envnws::simnet
