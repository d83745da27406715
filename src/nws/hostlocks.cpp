#include "nws/hostlocks.hpp"

#include <algorithm>

namespace envnws::nws {

void HostLockService::ensure(simnet::NodeId host) {
  if (host.index() >= locked_.size()) locked_.resize(host.index() + 1, false);
}

bool HostLockService::try_acquire(simnet::NodeId a, simnet::NodeId b) {
  ensure(a);
  ensure(b);
  if (locked_[a.index()] || locked_[b.index()]) {
    ++conflicts_;
    return false;
  }
  locked_[a.index()] = true;
  locked_[b.index()] = true;
  ++acquisitions_;
  return true;
}

void HostLockService::release(simnet::NodeId a, simnet::NodeId b) {
  ensure(a);
  ensure(b);
  locked_[a.index()] = false;
  locked_[b.index()] = false;
}

}  // namespace envnws::nws
