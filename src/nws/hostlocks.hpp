// Host-level measurement locks — the extension the paper's conclusion
// asks for: "It makes sure that only one pair of hosts from a given
// group will conduct an experiment at a given time. But on a switched
// network, more than one experiment may be authorized if the hosts
// involved in each experiments are different. That is to say that a
// possibility to lock hosts (and not networks) is still needed."
//
// The service is shared by every clique of an NWS instance: an
// experiment may start only after acquiring both endpoints. Cliques that
// would collide always share an endpoint in practice (a representative
// belongs to both the local and the inter clique), so host locks also
// serialize cross-clique interference — and on switched segments several
// disjoint-host experiments can now run concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/types.hpp"

namespace envnws::nws {

class HostLockService {
 public:
  /// Atomically acquire both endpoints; false (and no change) if either
  /// is already held.
  bool try_acquire(simnet::NodeId a, simnet::NodeId b);
  void release(simnet::NodeId a, simnet::NodeId b);

  [[nodiscard]] std::uint64_t acquisitions() const { return acquisitions_; }
  /// Denied attempts: how often an experiment had to wait for a host.
  [[nodiscard]] std::uint64_t conflicts() const { return conflicts_; }

 private:
  void ensure(simnet::NodeId host);

  std::vector<bool> locked_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t conflicts_ = 0;
};

}  // namespace envnws::nws
