// Workload `query`: the read path of a long-running full node. One node
// builds the generated donation chain through its own submit path, is
// stopped and reopened (every block checkpointed), and one closed-loop
// client issues the paper's Q2, Q4, Q5, Q6 and Q7 text in turn, with Zipf-
// drawn keys. Every answer is checked against the generator's ground truth.
#include "layers.h"
#include "network/sim_network.h"
#include "sql/parser.h"
#include "storage/file.h"
#include "workloads.h"

namespace perfbench {

using sebdb::SebdbNode;
using sebdb::Status;

namespace {

// Per-class tail: a run holds a few hundred queries of each class.
constexpr double kClassTail = 0.9;

struct Query {
  int cls = kQ2;
  std::string sql;
  uint64_t expected_rows = 0;
  std::string sender;  // Q2
  int64_t lo = 0, hi = 0;  // Q4
};

class QueryMix {
 public:
  QueryMix(const GeneratedChain& chain, uint64_t seed, uint64_t first_block,
           uint64_t last_full_block)
      : chain_(chain),
        keys_(chain, seed),
        first_block_(first_block),
        blocks_(last_full_block - first_block + 1),
        block_zipf_(blocks_, 0.9) {}

  Query Next(int cls) {
    Query q;
    q.cls = cls;
    switch (cls) {
      case kQ2:
        q.sender = keys_.Sender();
        q.sql = "TRACE OPERATOR = '" + q.sender + "'";
        q.expected_rows = chain_.SenderRows(q.sender);
        break;
      case kQ4:
        keys_.AmountRange(&q.lo, &q.hi);
        q.sql = Fmt("SELECT * FROM donate WHERE amount BETWEEN %lld AND %lld",
                    static_cast<long long>(q.lo), static_cast<long long>(q.hi));
        q.expected_rows = chain_.RangeRows(q.lo, q.hi);
        break;
      case kQ5:
        q.sql =
            "SELECT * FROM transfer, distribute ON transfer.organization = "
            "distribute.organization";
        q.expected_rows = chain_.q5_rows;
        break;
      case kQ6:
        q.sql =
            "SELECT * FROM onchain.distribute, offchain.donorinfo ON "
            "distribute.donee = donorinfo.donee";
        q.expected_rows = chain_.q6_rows;
        break;
      default: {
        // Recent blocks are the popular ones.
        uint64_t rank = keys_.BlockRank(block_zipf_);
        uint64_t height = first_block_ + (blocks_ - 1 - rank);
        q.sql = "GET BLOCK ID=" + std::to_string(height);
        q.expected_rows = 1;
        break;
      }
    }
    return q;
  }

 private:
  const GeneratedChain& chain_;
  KeyDraws keys_;
  const uint64_t first_block_;
  const uint64_t blocks_;
  Zipf block_zipf_;
};

// Checks a result against the ground truth; Q7's one row must describe a
// full block.
bool Matches(const Query& q, const sebdb::ResultSet& rs, bool wrong_truth) {
  uint64_t expected = q.expected_rows + (wrong_truth ? 1 : 0);
  if (rs.num_rows() != expected) return false;
  if (q.cls == kQ7) {
    return rs.rows[0][2].AsInt() == static_cast<int64_t>(kBlockTxns);
  }
  return true;
}

// Candidate blocks of the Q2 / Q4 predicate through the index alone, and
// how many of them hold a result row.
void MeasureCandidates(SebdbNode* node, const Query& q,
                       const sebdb::ResultSet& rs, ClassCounters* c) {
  sebdb::IndexSet* indexes = node->chain().indexes();
  sebdb::LayeredIndex* index = nullptr;
  sebdb::Value lo, hi;
  if (q.cls == kQ2) {
    index = indexes->senid_index();
    lo = hi = sebdb::Value::Str(q.sender);
  } else if (q.cls == kQ4) {
    index = indexes->GetLayered("donate", "amount");
    lo = sebdb::Value::Int(q.lo);
    hi = sebdb::Value::Int(q.hi);
  }
  if (index == nullptr) return;
  sebdb::Bitmap candidates;
  int64_t t0 = NowNanos();
  {
    Span span("index.candidates");
    candidates = index->CandidateBlocks(&lo, &hi);
  }
  c->candidate_ns += NowNanos() - t0;
  c->candidate_queries++;
  c->candidate_blocks += candidates.Count();
  int tid_col = TidColumn(rs);
  if (tid_col < 0) return;
  std::vector<uint64_t> blocks;
  for (const auto& row : rs.rows) {
    sebdb::BlockIndexEntry entry;
    if (indexes->block_index()
            .FindByTid(static_cast<sebdb::TransactionId>(row[tid_col].AsInt()),
                       &entry)
            .ok()) {
      blocks.push_back(entry.bid);
    }
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  for (uint64_t b : blocks) {
    if (b < candidates.size() && candidates.Test(b)) c->useful_blocks++;
  }
}

}  // namespace

RunResult RunQuery(const Args& args) {
  RunResult result;
  const ChainSpec spec = QueryChainSpec(args.smoke());
  const GeneratedChain chain = GenerateChain(spec, args.seed);
  const std::vector<std::string> ids = {"q0"};

  sebdb::KeyStore keystore;
  AddIdentities(&keystore, spec.senders, ids);
  sebdb::OffchainDb offchain;
  Status s = FillOffchain(spec, &offchain);
  if (!s.ok()) {
    result.Fail("offchain: " + s.ToString());
    return result;
  }

  std::unique_ptr<sebdb::SimNetwork> sim;
  std::unique_ptr<TracingNetwork> traced_net;
  std::unique_ptr<TracingEnv> env;
  sebdb::Network* net = nullptr;
  std::vector<std::unique_ptr<SebdbNode>> nodes;
  std::string dir;
  int attempt = 0;
  NodeSnapshot write;
  double reopen_ms = 0;
  uint64_t first_block = 0;

  auto setup = [&]() -> Status {
    dir = args.data_dir + "/query" + std::to_string(attempt++);
    sim = std::make_unique<sebdb::SimNetwork>();
    net = sim.get();
    if (args.trace) {
      traced_net = std::make_unique<TracingNetwork>(sim.get());
      net = traced_net.get();
      env = std::make_unique<TracingEnv>(sebdb::Env::Default());
    }
    Status st = StartNodes(ids, dir, net, &keystore, &offchain, env.get(), &nodes);
    if (st.ok()) st = CreateDonationSchema(nodes, &keystore);
    if (!st.ok()) return st;
    first_block = nodes[0]->chain().height();
    st = SubmitChain(nodes, chain);
    if (!st.ok()) return st;
    write = Delta(std::vector<NodeSnapshot>(1), SnapshotAll(nodes));
    StopNodes(&nodes);
    int64_t t0 = NowNanos();
    {
      Span span("core.reopen");
      st = StartNodes(ids, dir, net, &keystore, &offchain, env.get(), &nodes);
    }
    reopen_ms = (NowNanos() - t0) / 1e6;
    if (!st.ok()) return st;
    // Warm-up: every class a few times, with keys of its own.
    QueryMix warm(chain, args.seed + 7777, first_block,
                  nodes[0]->chain().height() - 2);
    for (int i = 0; i < 5 * kNumClasses; i++) {
      sebdb::ResultSet rs;
      st = nodes[0]->ExecuteSql(warm.Next(i % kNumClasses).sql,
                                sebdb::ExecOptions(), &rs);
      if (!st.ok()) return st;
    }
    return Status::OK();
  };
  auto teardown = [&] {
    StopNodes(&nodes);
    sim->Shutdown();
    sebdb::RemoveDirRecursive(dir);
  };
  double setup_s = 0;
  s = RepeatSetup(3, setup, teardown, &setup_s);
  if (!s.ok()) {
    result.Fail("setup: " + s.ToString());
    return result;
  }
  SebdbNode* node = nodes[0].get();
  const uint64_t height = node->chain().height();
  const sebdb::ChainManager::StartupStats startup = node->startup_stats();
  if (!startup.from_checkpoint) result.Fail("reopen did not use a checkpoint");

  // Every data block but the last is full, so GET BLOCK's ground truth is
  // one row describing a kBlockTxns block.
  uint64_t partial = 0;
  for (uint64_t h = first_block; h + 1 < height; h++) {
    sebdb::BlockHeader header;
    if (!node->chain().GetHeader(h, &header).ok() ||
        header.num_transactions != kBlockTxns) {
      partial++;
    }
  }
  if (partial > 0) {
    result.Fail(Fmt("%llu chain blocks before the last are not full",
                    static_cast<unsigned long long>(partial)));
  }

  // ---- timed window: one closed-loop client ----
  QueryMix mix(chain, args.seed, first_block, height - 2);
  sebdb::LocalOffchainConnector connector(&offchain);
  LayerInputs in;
  Latencies pooled;
  std::vector<Query> issued;
  const std::vector<NodeSnapshot> before = SnapshotAll(nodes);
  const double cpu0 = ProcessCpuSeconds();
  const double thread_cpu0 = ThreadCpuSeconds();
  const int64_t t_start = NowNanos();
  const int64_t t_end = t_start + static_cast<int64_t>(args.seconds) * 1000000000;
  RateSlices rate(t_start, args.seconds);
  uint64_t n = 0;
  int64_t in_system_ns = 0;
  while (NowNanos() < t_end) {
    Tracer::SetRequest(n + 1);
    Query q = mix.Next(static_cast<int>(n % kNumClasses));
    ClassCounters& c = in.classes[q.cls];
    if (args.trace) {
      Span span("sql.parse");
      sebdb::StatementPtr stmt;
      (void)sebdb::ParseStatement(q.sql, &stmt);
    }
    sebdb::ResultSet rs;
    uint64_t env_read0 =
        env ? env->counters(TracingEnv::kSegment).read_ns.load() +
                  env->counters(TracingEnv::kCheckpoint).read_ns.load()
            : 0;
    int64_t q0 = NowNanos();
    {
      Span span("sql.execute");
      s = node->ExecuteSql(q.sql, sebdb::ExecOptions(), &rs);
    }
    int64_t q1 = NowNanos();
    in_system_ns += q1 - q0;
    n++;
    c.queries++;
    c.execute_ns += q1 - q0;
    if (env) {
      c.env_read_ns += env->counters(TracingEnv::kSegment).read_ns.load() +
                       env->counters(TracingEnv::kCheckpoint).read_ns.load() -
                       env_read0;
    }
    // Any error or wrong row count fails the run; only the first few are
    // spelled out.
    if (!s.ok() || !Matches(q, rs, args.wrong_truth)) {
      result.failed++;
      c.latency.AddFailed();
      pooled.AddFailed();
      if (result.failed <= 3) {
        result.Fail(Fmt("%s %s, %zu rows, ground truth %llu: %s",
                        ClassName(q.cls), s.ToString().c_str(), rs.num_rows(),
                        static_cast<unsigned long long>(q.expected_rows),
                        q.sql.c_str()));
      }
      continue;
    }
    rate.Add(q1);
    double ms = (q1 - q0) / 1e6;
    c.latency.Add(ms);
    pooled.Add(ms);
    c.rows += rs.num_rows();
    if (issued.size() < 4096) issued.push_back(q);
  }
  const int64_t t_stop = NowNanos();
  const double cpu1 = ProcessCpuSeconds();
  const double thread_cpu1 = ThreadCpuSeconds();
  const std::vector<NodeSnapshot> after = SnapshotAll(nodes);
  Tracer::SetRequest(0);
  const double window_s = (t_stop - t_start) / 1e9;
  result.attempted = n;

  // Traced run: the index-alone candidate search and the off-chain fetch
  // are measured after the window, on the first queries issued, so their
  // extra work does not disturb the queries the window times.
  if (args.trace) {
    int measured[kNumClasses] = {0};
    for (const Query& q : issued) {
      if (measured[q.cls]++ >= 64) continue;
      if (q.cls == kQ2 || q.cls == kQ4) {
        sebdb::ResultSet rs;
        if (node->ExecuteSql(q.sql, sebdb::ExecOptions(), &rs).ok()) {
          MeasureCandidates(node, q, rs, &in.classes[q.cls]);
        }
      } else if (q.cls == kQ6) {
        std::vector<sebdb::OffchainRow> rows;
        int64_t f0 = NowNanos();
        {
          Span span("offchain.fetch");
          (void)connector.FetchSortedBy("donorinfo", "donee", &rows);
        }
        in.offchain_fetch_ns += NowNanos() - f0;
        in.offchain_fetches++;
      }
    }
  }

  // ---- correctness: a seeded sample re-run through full scans ----
  sebdb::Random sample_rng(args.seed + 99);
  sebdb::ExecOptions scan;
  scan.access_path = sebdb::AccessPath::kScan;
  scan.join_strategy = sebdb::JoinStrategy::kScanHash;
  const int per_class = args.smoke() ? 2 : 3;
  int checked[kNumClasses] = {0};
  for (size_t tries = 0; tries < issued.size() * 2 && !issued.empty();
       tries++) {
    const Query& q = issued[sample_rng.Uniform(issued.size())];
    if (checked[q.cls] >= per_class) continue;
    checked[q.cls]++;
    sebdb::ResultSet indexed, scanned;
    Status a = node->ExecuteSql(q.sql, sebdb::ExecOptions(), &indexed);
    Status b = node->ExecuteSql(q.sql, scan, &scanned);
    if (!a.ok() || !b.ok() || CanonicalRows(indexed) != CanonicalRows(scanned)) {
      result.Fail(Fmt("%s: indexed and full-scan results differ: %s",
                      ClassName(q.cls), q.sql.c_str()));
    }
  }

  // ---- validity and traffic report ----
  // The in-process client runs each query on its own thread, so the busy
  // share that matters is the client.s own work between queries (key draws,
  // checks, tracing), not the query execution it waits for.
  const double client_busy = 1.0 - in_system_ns / 1e9 / window_s;
  if (client_busy >= 0.9) {
    result.Fail(Fmt("client busy %.0f%% of the window outside the node",
                    client_busy * 100));
  }
  result.Info("client_busy", Fmt("%.3f of the window outside the node (thread "
                                 "CPU %.3f of the window)",
                                 client_busy,
                                 (thread_cpu1 - thread_cpu0) / window_s));
  const uint64_t chain_bytes = DirBytes(dir + "/q0");
  NodeSnapshot window = Delta(before, after);
  std::vector<double> class_p50, class_tail;
  result.Info("loop", "closed, 1 client, window 1, classes Q2 Q4 Q5 Q6 Q7 in "
                      "turn, injected delay 0");
  for (int i = 0; i < kNumClasses; i++) {
    const ClassCounters& c = in.classes[i];
    class_p50.push_back(c.latency.Median());
    class_tail.push_back(c.latency.Quantile(kClassTail));
    if (!c.latency.HasTail(kClassTail)) {
      result.Fail(Fmt("too few %s queries for p90", ClassName(i)));
    }
    result.Info(std::string(ClassName(i)) + "_p50_ms",
                Fmt("%.4f (p90 %.4f) over %zu queries, %.1f rows per query",
                    c.latency.Median(), c.latency.Quantile(kClassTail),
                    c.latency.size(),
                    c.queries ? double(c.rows) / c.queries : 0.0));
  }
  const double p50 = GeoMean(class_p50);
  const double tail = GeoMean(class_tail);
  // The pooled p99 the paper-style report quotes: in practice the slowest
  // Q5 joins, so it tracks one class's scheduling noise; tail_ms weighs
  // every class alike instead.
  const double pooled_p99 = pooled.Quantile(0.99);
  std::string beyond;
  for (int i = 0; i < kNumClasses; i++) {
    beyond += Fmt(" %s %zu", ClassName(i),
                  in.classes[i].latency.CountAbove(pooled_p99));
  }
  result.Info("query_p99_ms", Fmt("%.4f of %zu samples; beyond it:%s",
                                  pooled_p99, pooled.size(), beyond.c_str()));
  result.Info("failed_ratio", Fmt("%.6f", n ? double(result.failed) / n : 0.0));
  result.Info("key_skew",
              Fmt("Zipf s=%.1f senders: top 1%% send %.3f of txns; amounts "
                  "Zipf s=%.1f over [1, %llu], Q4 width %lld",
                  spec.sender_skew, chain.sender_top1pct_share,
                  spec.amount_skew,
                  static_cast<unsigned long long>(spec.amount_max),
                  static_cast<long long>(KeyDraws::kRangeWidth)));
  result.Info("cache_budgets",
              Fmt("chain %.1f MiB on disk (%llu txns, %llu blocks) vs block "
                  "cache 64 MiB, txn cache 16 MiB; checkpoint files %.1f MiB "
                  "vs checkpoint pool 64 MiB; block cache holds %.1f MiB, "
                  "txn cache %.1f MiB",
                  chain_bytes / 1048576.0,
                  static_cast<unsigned long long>(spec.txns),
                  static_cast<unsigned long long>(height),
                  DirBytes(dir + "/q0/checkpoints") / 1048576.0,
                  window.cache.block_usage / 1048576.0,
                  window.cache.txn_usage / 1048576.0));
  result.Info("reopen", Fmt("%.1f ms, %llu blocks from checkpoint, %llu "
                            "replayed",
                            reopen_ms,
                            static_cast<unsigned long long>(
                                startup.checkpoint_height),
                            static_cast<unsigned long long>(
                                startup.replayed_blocks)));
  if (!std::isfinite(tail)) result.Fail("too few queries for a tail percentile");

  result.Set("setup_s", setup_s, "s");
  result.Info("queries_per_s", rate.Summary());
  result.Set("ops_per_s", rate.Median(), "1/s");
  result.Set("p50_ms", p50, "ms");
  result.Set("tail_ms", tail, "ms");
  const uint64_t answered = n - result.failed;
  result.Set("cpu_ms_per_op", answered ? (cpu1 - cpu0) * 1e3 / answered : 0,
             "ms");

  if (args.trace) {
    in.write = write;
    in.chained_txns = spec.txns;
    sebdb::NetworkStats ns = sim->stats();
    in.net_messages = ns.messages_sent;
    in.net_bytes = ns.bytes_sent;
    in.network = traced_net.get();
    in.env = env.get();
    in.reopen_ms = reopen_ms;
    in.replayed_blocks = startup.replayed_blocks;
    in.read = window;
    in.read_queries = n;
    FillLayerMetrics(in, &result);
  }
  StopNodes(&nodes);
  sim->Shutdown();
  sebdb::RemoveDirRecursive(dir);
  return result;
}

}  // namespace perfbench
