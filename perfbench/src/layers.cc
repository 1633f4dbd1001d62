#include "layers.h"

namespace perfbench {

const char* ClassName(int c) {
  static const char* const kNames[kNumClasses] = {"q2", "q4", "q5", "q6",
                                                  "q7"};
  return kNames[c];
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Mean duration of a span name, in the given unit (1e3 = us, 1e6 = ms).
double MeanSpan(const std::map<std::string, Tracer::Totals>& spans,
                const std::string& name, double unit_ns) {
  auto it = spans.find(name);
  if (it == spans.end() || it->second.count == 0) return 0;
  return it->second.total_ns / unit_ns / static_cast<double>(it->second.count);
}

}  // namespace

void FillLayerMetrics(const LayerInputs& in, RunResult* r) {
  const auto spans = Tracer::Aggregate();
  const NodeSnapshot& w = in.write;
  const NodeSnapshot& rd = in.read;

  // core
  r->Set("core.sign_us", MeanSpan(spans, "core.sign", 1e3), "us");
  r->Set("core.append_batch_ms",
         MeanSpan(spans, "net.handle.kafka.deliver", 1e6), "ms");
  r->Set("core.apply_ms_per_block",
         Ratio(w.apply.apply_micros / 1e3, w.apply.blocks), "ms");
  r->Set("core.waves_per_block", Ratio(w.apply.waves, w.apply.blocks),
         "count");
  r->Set("core.conflict_share", Ratio(w.apply.conflict_txns, w.apply.txns),
         "ratio");
  r->Set("core.reopen_ms", in.reopen_ms, "ms");
  r->Set("core.replayed_blocks", in.replayed_blocks, "count");

  // consensus
  r->Set("consensus.submit_us", MeanSpan(spans, "consensus.submit", 1e3), "us");
  r->Set("consensus.broker_handler_us",
         MeanSpan(spans, "net.handle.kafka.submit", 1e3), "us");
  r->Set("consensus.txns_per_block", Ratio(w.apply.txns, w.apply.blocks),
         "count");
  r->Set("consensus.admission_rejects", w.admission_rejects, "count");

  // network
  r->Set("network.msgs_per_txn", Ratio(in.net_messages, in.chained_txns),
         "count");
  r->Set("network.bytes_per_txn", Ratio(in.net_bytes, in.chained_txns), "B");
  r->Set("network.rpc_bytes_per_query", Ratio(in.rpc_bytes, in.verified), "B");
  r->Set("network.rpc_retries", in.rpc_retries, "count");
  if (in.network != nullptr) {
    for (const auto& [type, t] : in.network->type_stats()) {
      r->Info("network." + type,
              Fmt("%llu sent (%.1f MiB), %llu handled, %.0f B per message, "
                  "handler %.1f us per message",
                  static_cast<unsigned long long>(t.sent),
                  t.sent_bytes / 1048576.0,
                  static_cast<unsigned long long>(t.handled),
                  Ratio(t.handled_bytes, t.handled),
                  Ratio(t.handler_ns / 1e3, t.handled)));
    }
  }

  // storage: write side from the Env seam, read side from the node stats.
  uint64_t env_append_bytes = 0, syncs = 0;
  if (in.env != nullptr) {
    static const char* const kKindName[TracingEnv::kNumKinds] = {
        "segment", "checkpoint", "other"};
    for (int k = 0; k < TracingEnv::kNumKinds; k++) {
      const auto& c = in.env->counters(static_cast<TracingEnv::Kind>(k));
      env_append_bytes += c.append_bytes.load();
      syncs += c.syncs.load();
      r->Info(std::string("env.") + kKindName[k],
              Fmt("%llu appends (%.1f MiB), %llu syncs, %llu reads (%.1f MiB)",
                  static_cast<unsigned long long>(c.appends.load()),
                  c.append_bytes.load() / 1048576.0,
                  static_cast<unsigned long long>(c.syncs.load()),
                  static_cast<unsigned long long>(c.reads.load()),
                  c.read_bytes.load() / 1048576.0));
    }
    const auto& seg = in.env->counters(TracingEnv::kSegment);
    const auto& ckpt = in.env->counters(TracingEnv::kCheckpoint);
    r->Set("storage.segment_append_us",
           Ratio(seg.append_ns.load() / 1e3, seg.appends.load()), "us");
    // Checkpoint file I/O (appends + syncs) per checkpoint written.
    r->Set("storage.checkpoint_write_ms",
           Ratio((ckpt.append_ns.load() + ckpt.sync_ns.load()) / 1e6,
                 in.env->checkpoints()),
           "ms");
    r->Set("storage.checkpoint_bytes",
           Ratio(ckpt.append_bytes.load(), in.env->checkpoints()), "B");
  } else {
    r->Set("storage.segment_append_us", 0, "us");
    r->Set("storage.checkpoint_write_ms", 0, "ms");
    r->Set("storage.checkpoint_bytes", 0, "B");
  }
  r->Set("storage.write_bytes_per_txn",
         Ratio(env_append_bytes, in.chained_txns), "B");
  r->Set("storage.syncs", syncs, "count");
  r->Set("storage.space_amp", in.space_amp, "ratio");
  r->Set("storage.block_cache_hit_rate",
         Ratio(rd.cache.block_hits, rd.cache.block_hits + rd.cache.block_misses),
         "ratio");
  r->Set("storage.txn_cache_hit_rate",
         Ratio(rd.cache.txn_hits, rd.cache.txn_hits + rd.cache.txn_misses),
         "ratio");
  uint64_t read_rows = 0;
  for (const auto& c : in.classes) read_rows += c.rows;
  r->Set("storage.read_bytes_per_query", Ratio(rd.bytes_read, in.read_queries),
         "B");
  r->Set("storage.txn_reads_per_row", Ratio(rd.txns_read, read_rows), "count");
  r->Set("storage.block_reads_per_query",
         Ratio(rd.blocks_read, in.read_queries), "count");
  r->Set("storage.bufpool_hit_rate",
         Ratio(rd.pool.hits, rd.pool.hits + rd.pool.misses), "ratio");
  r->Set("storage.bufpool_misses_per_query",
         Ratio(rd.pool.misses, in.read_queries), "count");
  TracingThinTransport::Counters thin;
  if (in.thin != nullptr) thin = in.thin->counters();
  r->Set("storage.block_reads_per_prove",
         Ratio(thin.prove_blocks_read, thin.proves), "count");

  // index: the Q2 and Q4 predicates run through the index alone.
  int64_t cand_ns = 0;
  uint64_t cand_queries = 0, cand_blocks = 0, useful = 0;
  for (const auto& c : in.classes) {
    cand_ns += c.candidate_ns;
    cand_queries += c.candidate_queries;
    cand_blocks += c.candidate_blocks;
    useful += c.useful_blocks;
  }
  r->Set("index.candidate_us", Ratio(cand_ns / 1e3, cand_queries), "us");
  r->Set("index.candidate_blocks", Ratio(cand_blocks, cand_queries), "count");
  r->Set("index.candidate_precision", Ratio(useful, cand_blocks), "ratio");

  // sql
  r->Set("sql.parse_us", MeanSpan(spans, "sql.parse", 1e3), "us");
  for (int i = 0; i < kNumClasses; i++) {
    const ClassCounters& c = in.classes[i];
    std::string name = ClassName(i);
    // Execute time minus the storage reads and the index search inside it.
    double self_ns = static_cast<double>(c.execute_ns - c.env_read_ns);
    if (c.candidate_queries > 0) {
      self_ns -= Ratio(c.candidate_ns, c.candidate_queries) * c.queries;
    }
    r->Set("sql.execute_self_ms." + name, Ratio(self_ns / 1e6, c.queries),
           "ms");
    r->Set("sql.rows_per_query." + name, Ratio(c.rows, c.queries), "count");
    r->Set("sql.p50_ms." + name, c.latency.size() > 0 ? c.latency.Median() : 0,
           "ms");
  }

  // offchain
  r->Set("offchain.fetch_us",
         Ratio(in.offchain_fetch_ns / 1e3, in.offchain_fetches), "us");

  // auth
  r->Set("auth.prove_ms", Ratio(thin.prove_ns / 1e6, thin.proves), "ms");
  r->Set("auth.digest_ms", Ratio(thin.digest_ns / 1e6, thin.digests), "ms");
  r->Set("auth.client_verify_ms", Ratio(in.client_verify_us / 1e3, in.verified),
         "ms");
  r->Set("auth.proof_blocks_per_query", Ratio(thin.proof_blocks, thin.proves),
         "count");
  r->Set("auth.vo_bytes_per_row", Ratio(in.vo_bytes, in.verified_rows), "B");
  r->Set("auth.vo_kb_per_query", Ratio(in.vo_bytes / 1024.0, in.verified),
         "KiB");
}

}  // namespace perfbench
