// misusebench per-layer split: an in-process replay of one workload that
// times calls into each layer's public functions, with tracing spans kept
// in memory and written out as trace_<workload>.json.
//
// Layers nest logically, not in time: each layer is driven on its own
// copy of the session state, in its own pass over the timed events.
//
//
//   parse    serve::parse_event
//   route    router::HashRing::owner_of + serve::session_shard_hash
//   server   serve::ScoringServer::submit_sync
//   ├─ shard    serve::SessionShard::process
//   │  ├─ monitor  core::OnlineMonitor::observe
//   │  │  └─ ocsvm   cluster::ClusterAssigner::OnlineAssignment::push
//   │  └─ render   serve::render_step_record
//   └─ wal      serve::encode_event_record + WalWriter::append/flush
//   lstm     core::MisuseDetector::step_cluster_into (one cluster)
//   head     core::MisuseDetector::materialize_cluster_dist
//
// A layer's self time is its duration minus its children's; the model's
// time (LSTM advances, head and alarm policy) is monitor − ocsvm.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "live.hpp"

namespace misusebench {

struct LayerConfig {
  std::size_t timed = 2000;   // paced events timed after the untimed warm-up
  std::string wal_dir;        // durable workload: the server's WAL directory
  std::string ring_node;      // the router's single node, as it names it
  std::string trace_path;     // where the spans go
};

struct LayerSplit {
  std::map<std::string, double> metrics;  // per-layer metric name -> value
  double inproc_p50_us = 0.0;             // parse + server, per event
  /// Worst "children exceed their parent" share across the tree (0 when
  /// every parent covers its children).
  double worst_nesting_excess = 0.0;
};

LayerSplit measure_layers(const misuse::core::MisuseDetector& detector,
                          const std::vector<Record>& warmup, const std::vector<Record>& paced,
                          const LayerConfig& config);

}  // namespace misusebench
