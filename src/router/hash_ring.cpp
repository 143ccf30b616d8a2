#include "router/hash_ring.hpp"

namespace misuse::router {

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes == 0 ? 1 : vnodes) {}

namespace {

/// Ring position of a stable hash: splitmix64's output for it (its
/// golden-gamma increment, then the mix64 finalizer). The increment keeps
/// placement independent of the canary sampler, which reads mix64(hash)
/// itself (serve/shadow.cpp): a node's arcs never decide its canary share.
std::uint64_t position(std::uint64_t hash) { return serve::mix64(hash + 0x9e3779b97f4a7c15ULL); }

/// Rebuilds the position map from the node set. Iterating names in
/// sorted order and keeping the first inserter on a position collision
/// makes ownership a pure function of the node *set* — the order
/// add_node/remove_node were called in can never matter.
std::map<std::uint64_t, std::string> build(const std::set<std::string>& names,
                                           std::size_t vnodes) {
  std::map<std::uint64_t, std::string> ring;
  for (const std::string& name : names) {
    for (std::size_t i = 0; i < vnodes; ++i) {
      ring.emplace(position(serve::session_shard_hash(name + "#" + std::to_string(i))), name);
    }
  }
  return ring;
}

}  // namespace

void HashRing::add_node(const std::string& name) {
  if (!names_.insert(name).second) return;
  ring_ = build(names_, vnodes_);
}

void HashRing::remove_node(const std::string& name) {
  if (names_.erase(name) == 0) return;
  ring_ = build(names_, vnodes_);
}

const std::string* HashRing::owner(std::uint64_t key_hash) const {
  if (ring_.empty()) return nullptr;
  auto it = ring_.lower_bound(position(key_hash));
  if (it == ring_.end()) it = ring_.begin();  // wrap past the top
  return &it->second;
}

}  // namespace misuse::router
