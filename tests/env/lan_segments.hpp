// The LAN segments of an effective-view tree, for assertions on a map.
#pragma once

#include <vector>

#include "env/env_tree.hpp"

namespace envnws::env {

/// Every network of the tree under `root` (root first, then depth
/// first) whose kind is shared, switched or inconclusive.
inline std::vector<const EnvNetwork*> lan_segments(const EnvNetwork& root) {
  std::vector<const EnvNetwork*> out;
  if (root.kind != NetKind::structural) out.push_back(&root);
  for (const auto& child : root.children) {
    const auto nested = lan_segments(child);
    out.insert(out.end(), nested.begin(), nested.end());
  }
  return out;
}

}  // namespace envnws::env
