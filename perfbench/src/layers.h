// Per-layer metrics of the traced run. Every workload prints the full list
// (the result line must carry every per-layer metric); a layer a workload
// never enters reads 0. Spans cover the whole run — set-up, timed window and
// checks — so a query or verify run also reports the write path that built
// its chain. README.md maps each metric to the end-to-end metric and
// workload it should move.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.h"
#include "harness.h"
#include "trace.h"

namespace perfbench {

/// Query classes of the `query` workload (Q3, two-dimensional tracking, has
/// no class of its own: it runs the same SenID path as Q2).
enum QueryClass { kQ2 = 0, kQ4, kQ5, kQ6, kQ7, kNumClasses };
const char* ClassName(int c);

struct ClassCounters {
  uint64_t queries = 0;
  uint64_t rows = 0;
  int64_t execute_ns = 0;       // ExecuteSql span
  int64_t env_read_ns = 0;      // storage reads inside those spans
  int64_t candidate_ns = 0;     // same predicate through the index alone
  uint64_t candidate_queries = 0;
  uint64_t candidate_blocks = 0;
  uint64_t useful_blocks = 0;   // candidates holding at least one result
  Latencies latency;            // traced-run latencies of this class
};

/// What a workload measured, handed to FillLayerMetrics.
struct LayerInputs {
  // Write path: stats deltas over the nodes that chained blocks, the txns
  // they chained, and the in-process network they used.
  NodeSnapshot write;
  uint64_t chained_txns = 0;
  uint64_t net_messages = 0;
  uint64_t net_bytes = 0;
  const TracingNetwork* network = nullptr;
  const TracingEnv* env = nullptr;
  // Reopen of the built chain.
  double reopen_ms = 0;
  uint64_t replayed_blocks = 0;
  // Read path (query workload, or the SQL side of a check).
  NodeSnapshot read;
  uint64_t read_queries = 0;
  ClassCounters classes[kNumClasses];
  uint64_t offchain_fetches = 0;
  int64_t offchain_fetch_ns = 0;
  // Verified queries.
  const TracingThinTransport* thin = nullptr;
  uint64_t verified = 0;
  uint64_t verified_rows = 0;
  uint64_t vo_bytes = 0;
  int64_t client_verify_us = 0;
  uint64_t rpc_bytes = 0;
  uint64_t rpc_retries = 0;
  // Storage footprint.
  double space_amp = 0;
};

/// Adds every per-layer metric to `result`.
void FillLayerMetrics(const LayerInputs& in, RunResult* result);

}  // namespace perfbench
