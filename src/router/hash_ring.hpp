// Consistent-hash ring for the scoring cluster (misusedet_router): maps
// session keys onto serve nodes so that adding or removing one node
// remaps only the sessions that node owns/owned — every other session
// stays put, which is what makes failure handoff (DESIGN.md "Cluster
// serving") a bounded replay instead of a cluster-wide reshuffle.
//
// Layout: each node contributes `vnodes` virtual points, placed at the
// mixed hash of "<name>#<i>"; a key is owned by the first point clockwise
// from its mixed hash. Both hash with serve::session_shard_hash (FNV-1a)
// and then splitmix64's step, so names and session ids that differ only
// in their last bytes spread over the whole ring instead of clustering.
// Virtual points smooth the load: with v points per node the expected
// per-node share deviates by O(1/sqrt(v)). Everything is deterministic —
// no RNG, no pointer or platform dependence — so every router instance
// given the same node list computes the same ownership, and tests can pin
// exact remap sets.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "serve/event.hpp"

namespace misuse::router {

class HashRing {
 public:
  explicit HashRing(std::size_t vnodes = 64);

  /// Inserts `name`'s virtual points. Adding a present node is a no-op.
  void add_node(const std::string& name);

  /// Removes `name`'s virtual points; its keys fall to their clockwise
  /// successors. Removing an absent node is a no-op.
  void remove_node(const std::string& name);

  bool has_node(const std::string& name) const { return names_.count(name) > 0; }
  std::size_t node_count() const { return names_.size(); }
  std::size_t vnodes_per_node() const { return vnodes_; }

  /// Node names in deterministic (lexicographic) order.
  std::vector<std::string> nodes() const { return {names_.begin(), names_.end()}; }

  /// Owner of a key hashed with serve::session_shard_hash: the first
  /// virtual point at or clockwise after the hash's ring position
  /// (wrapping). nullptr when the ring is empty. The pointer stays valid
  /// until the next add/remove.
  const std::string* owner(std::uint64_t key_hash) const;

  /// Convenience: owner of an unhashed key.
  const std::string* owner_of(std::string_view key) const {
    return owner(serve::session_shard_hash(key));
  }

 private:
  std::size_t vnodes_;
  /// position -> node name. Position collisions across nodes resolve to
  /// the first inserter; since insertion is set-ordered by replay of the
  /// same operations, ownership stays deterministic.
  std::map<std::uint64_t, std::string> ring_;
  std::set<std::string> names_;
};

}  // namespace misuse::router
