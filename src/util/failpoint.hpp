// Deterministic fault-injection framework. Code sprinkles *named sites*
// into failure-prone paths (file IO, sockets, WAL fsync, archive load):
//
//   if (MISUSEDET_FAILPOINT("wal.fsync")) return false;  // injected fault
//
// The site decides what its failure means (error return, short write,
// thrown exception); the framework only decides *whether* this hit
// fires. Sites are activated at process start via the environment,
//
//   MISUSEDET_FAILPOINTS="wal.fsync=nth:3;socket.write.short=every:2"
//
// or programmatically from tests (failpoints::set / clear). Trigger
// policies:
//   * always        — every evaluation fires
//   * off           — never fires (site stays registered for hit counts)
//   * nth:N         — exactly the Nth evaluation fires (1-based)
//   * every:K       — every Kth evaluation fires (K, 2K, ...)
//   * prob:P[:SEED] — each evaluation fires with probability P, decided
//                     by Rng::stream(SEED, hit_index): deterministic for
//                     a given seed regardless of thread interleaving.
//
// Zero cost when compiled out: unless the build defines
// MISUSEDET_FAILPOINTS_ENABLED=1 (CMake -DMISUSEDET_FAILPOINTS=ON; the
// default everywhere except Release), MISUSEDET_FAILPOINT(...) expands
// to the constant false and the site disappears entirely — verified by
// the bench-smoke CI job, which builds with failpoints off.
#pragma once

#include <cstdint>
#include <string>

namespace misuse::failpoints {

/// True when sites were compiled in (build-time switch).
bool compiled_in();

/// Evaluates the site against its configured policy; counts the hit.
/// Unconfigured sites never fire. Thread-safe.
bool evaluate(const char* site);

/// Replaces the whole configuration from a spec string
/// ("site=policy;site=policy"). Malformed entries are skipped with a
/// warning. An empty spec clears everything.
void configure(const std::string& spec);

/// Sets (or replaces) one site's policy, e.g. set("wal.fsync", "nth:2").
/// Returns false on an unparseable policy.
bool set(const std::string& site, const std::string& policy);

/// Removes every configured site and resets all counters.
void clear();

/// Evaluations of the site so far (configured sites only).
std::uint64_t hits(const std::string& site);

/// Evaluations that fired.
std::uint64_t triggered(const std::string& site);

}  // namespace misuse::failpoints

#if defined(MISUSEDET_FAILPOINTS_ENABLED) && MISUSEDET_FAILPOINTS_ENABLED
#define MISUSEDET_FAILPOINT(site) (::misuse::failpoints::evaluate(site))
#else
#define MISUSEDET_FAILPOINT(site) (false)
#endif
