// Workload `verify`: thin-client verified queries. Three full nodes build
// the generated chain through Kafka over SimNetwork and are reopened, each
// on its own TcpNetwork; a thin client holding only headers issues
// authenticated Q2 (AuthTraceQuery) and Q4 (AuthRangeQuery) in turn over
// real loopback sockets, with one prover and two auxiliary digests.
#include <set>
#include <thread>

#include "core/thin_client.h"
#include "layers.h"
#include "network/sim_network.h"
#include "network/tcp_network.h"
#include "storage/file.h"
#include "workloads.h"

namespace perfbench {

using sebdb::SebdbNode;
using sebdb::Status;
using sebdb::Value;

namespace {

// p90: a run holds hundreds of verified queries, not thousands.
constexpr double kTail = 0.9;
constexpr size_t kAuxiliary = 2;
constexpr size_t kRequiredMatching = 2;
constexpr int kAmountColumn = 7;  // donate.amount in the schema

// One authenticated query: Q2 (TRACE OPERATOR = sender) when `trace`,
// else Q4 (donate.amount BETWEEN lo AND hi).
struct VerifiedQuery {
  bool trace = true;
  std::string sender;
  int64_t lo = 0, hi = 0;

  static VerifiedQuery Next(KeyDraws* keys, bool trace) {
    VerifiedQuery q;
    q.trace = trace;
    if (trace) {
      q.sender = keys->Sender();
    } else {
      keys->AmountRange(&q.lo, &q.hi);
    }
    return q;
  }
  uint64_t ExpectedRows(const GeneratedChain& chain) const {
    return trace ? chain.SenderRows(sender) : chain.RangeRows(lo, hi);
  }
  std::string Sql() const {
    return trace ? "TRACE OPERATOR = '" + sender + "'"
                 : Fmt("SELECT * FROM donate WHERE amount BETWEEN %lld AND %lld",
                       static_cast<long long>(lo), static_cast<long long>(hi));
  }
  Status Run(sebdb::ThinClient* client, std::vector<sebdb::Transaction>* out,
             sebdb::AuthQueryStats* stats) const {
    if (trace) {
      return client->AuthTraceQuery(true, sender, kAuxiliary, kRequiredMatching,
                                    out, stats);
    }
    Value v_lo = Value::Int(lo), v_hi = Value::Int(hi);
    return client->AuthRangeQuery("donate", "amount", kAmountColumn, &v_lo,
                                  &v_hi, kAuxiliary, kRequiredMatching, out,
                                  stats);
  }
};

std::set<uint64_t> Tids(const std::vector<sebdb::Transaction>& txns) {
  std::set<uint64_t> out;
  for (const auto& t : txns) out.insert(t.tid());
  return out;
}

std::set<uint64_t> Tids(const sebdb::ResultSet& rs) {
  std::set<uint64_t> out;
  int col = TidColumn(rs);
  if (col < 0) return out;
  for (const auto& row : rs.rows) out.insert(row[col].AsInt());
  return out;
}

// Bytes the rebuild LRU is charged for every block's MB-tree of one ALI:
// 64 per tree plus key and record bytes per entry (ali.cc RebuildTree).
struct MbBytes {
  uint64_t senid = 0;
  uint64_t amount = 0;
};

MbBytes MeasureMbBytes(SebdbNode* node) {
  MbBytes out;
  const uint64_t height = node->chain().height();
  for (uint64_t h = 0; h < height; h++) {
    std::shared_ptr<const sebdb::Block> block;
    if (!node->chain().store()->ReadBlock(h, &block).ok()) continue;
    bool any_donate = false;
    for (const auto& txn : block->transactions()) {
      std::string encoded;
      txn.EncodeTo(&encoded);
      uint64_t record = encoded.size();
      out.senid += Value::Str(txn.sender()).ByteSize() + record;
      if (txn.tname() == "donate") {
        out.amount += txn.values().back().ByteSize() + record;
        any_donate = true;
      }
    }
    if (!block->transactions().empty()) out.senid += 64;
    if (any_donate) out.amount += 64;
  }
  return out;
}

}  // namespace

RunResult RunVerify(const Args& args) {
  RunResult result;
  const ChainSpec spec = VerifyChainSpec(args.smoke());
  const GeneratedChain chain = GenerateChain(spec, args.seed);
  const std::vector<std::string> ids = {"v0", "v1", "v2"};

  sebdb::KeyStore keystore;
  AddIdentities(&keystore, spec.senders, ids);

  std::unique_ptr<sebdb::SimNetwork> sim;
  std::unique_ptr<TracingNetwork> traced_sim;
  std::unique_ptr<TracingEnv> env;
  std::vector<std::unique_ptr<sebdb::TcpNetwork>> server_nets;
  std::unique_ptr<sebdb::TcpNetwork> client_net;
  std::vector<std::unique_ptr<SebdbNode>> nodes;
  std::unique_ptr<sebdb::ThinClient> client;
  TracingThinTransport* traced_transport = nullptr;
  sebdb::RpcThinTransport* rpc = nullptr;
  std::string dir;
  int attempt = 0;
  NodeSnapshot write;
  double reopen_ms = 0;
  uint64_t replayed = 0;
  uint64_t sim_messages = 0, sim_bytes = 0, sim_drops = 0;

  auto setup = [&]() -> Status {
    dir = args.data_dir + "/verify" + std::to_string(attempt++);
    sim = std::make_unique<sebdb::SimNetwork>();
    sebdb::Network* net = sim.get();
    if (args.trace) {
      traced_sim = std::make_unique<TracingNetwork>(sim.get());
      net = traced_sim.get();
      env = std::make_unique<TracingEnv>(sebdb::Env::Default());
    }
    Status st = StartNodes(ids, dir, net, &keystore, nullptr, env.get(), &nodes);
    if (st.ok()) st = CreateDonationSchema(nodes, &keystore);
    if (st.ok()) st = SubmitChain(nodes, chain);
    if (!st.ok()) return st;
    write = Delta(std::vector<NodeSnapshot>(ids.size()), SnapshotAll(nodes));
    StopNodes(&nodes);
    sim->Shutdown();
    sebdb::NetworkStats ns = sim->stats();
    sim_messages = ns.messages_sent;
    sim_bytes = ns.bytes_sent;
    sim_drops = ns.messages_dropped;

    // Reopen every node on its own TCP endpoint; it serves reads only.
    int64_t t0 = NowNanos();
    {
      Span span("core.reopen");
      for (const auto& id : ids) {
        sebdb::TcpNetworkOptions o;
        o.local_id = id;
        auto tcp = std::make_unique<sebdb::TcpNetwork>(o);
        st = tcp->Start();
        if (!st.ok()) return st;
        auto node = std::make_unique<SebdbNode>(
            MakeNodeOptions(id, dir, {id}, env.get()), &keystore, nullptr);
        st = node->Start(tcp.get());
        if (!st.ok()) return st;
        replayed += node->startup_stats().replayed_blocks;
        nodes.push_back(std::move(node));
        server_nets.push_back(std::move(tcp));
      }
    }
    reopen_ms = (NowNanos() - t0) / 1e6 / ids.size();

    sebdb::TcpNetworkOptions c;
    c.local_id = "thin";
    for (size_t i = 0; i < ids.size(); i++) {
      c.peers.push_back({ids[i], "127.0.0.1", server_nets[i]->listen_port()});
    }
    client_net = std::make_unique<sebdb::TcpNetwork>(c);
    st = client_net->Start();
    if (!st.ok()) return st;
    double deadline = NowSeconds() + 10;
    for (const auto& id : ids) {
      while (!client_net->PeerUp(id)) {
        if (NowSeconds() > deadline) return Status::TimedOut("peer " + id);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    sebdb::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.attempt_timeout_millis = 30000;
    policy.overall_deadline_millis = 90000;
    auto transport = std::make_unique<sebdb::RpcThinTransport>(
        "thin", client_net.get(), ids, policy);
    rpc = transport.get();
    std::unique_ptr<sebdb::ThinClientTransport> used = std::move(transport);
    if (args.trace) {
      std::map<std::string, SebdbNode*> by_id;
      for (const auto& node : nodes) by_id[node->node_id()] = node.get();
      auto traced = std::make_unique<TracingThinTransport>(std::move(used),
                                                           std::move(by_id));
      traced_transport = traced.get();
      used = std::move(traced);
    }
    client = std::make_unique<sebdb::ThinClient>(std::move(used), args.seed);
    st = client->SyncHeaders();
    if (!st.ok()) return st;
    // Warm-up: a few verified queries of each kind.
    KeyDraws warm(chain, args.seed + 7777);
    for (int i = 0; i < 4; i++) {
      std::vector<sebdb::Transaction> out;
      sebdb::AuthQueryStats stats;
      st = VerifiedQuery::Next(&warm, i % 2 == 0).Run(client.get(), &out, &stats);
      if (!st.ok()) return st;
    }
    return Status::OK();
  };
  auto teardown = [&] {
    client.reset();
    client_net->Shutdown();
    StopNodes(&nodes);
    for (auto& tcp : server_nets) tcp->Shutdown();
    server_nets.clear();
    client_net.reset();
    replayed = 0;
    sebdb::RemoveDirRecursive(dir);
  };
  double setup_s = 0;
  Status s = RepeatSetup(3, setup, teardown, &setup_s);
  if (!s.ok()) {
    result.Fail("setup: " + s.ToString());
    return result;
  }
  if (sim_drops != 0) result.Fail("build network dropped messages");

  // ---- timed window: authenticated Q2 and Q4 in turn ----
  KeyDraws keys(chain, args.seed);
  Latencies latency, q2_latency, q4_latency;
  uint64_t vo_bytes = 0, rows = 0, n = 0;
  int64_t client_us = 0, in_system_ns = 0;
  std::vector<VerifiedQuery> issued;
  auto net_bytes = [&] {
    uint64_t b = client_net->stats().bytes_sent;
    for (const auto& tcp : server_nets) b += tcp->stats().bytes_sent;
    return b;
  };
  const uint64_t bytes0 = net_bytes();
  const std::vector<NodeSnapshot> before = SnapshotAll(nodes);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t_start = NowNanos();
  const int64_t t_end = t_start + static_cast<int64_t>(args.seconds) * 1000000000;
  RateSlices rate(t_start, args.seconds);
  while (NowNanos() < t_end) {
    Tracer::SetRequest(n + 1);
    const bool trace_query = n % 2 == 0;
    const VerifiedQuery q = VerifiedQuery::Next(&keys, trace_query);
    const uint64_t expected = q.ExpectedRows(chain) + (args.wrong_truth ? 1 : 0);
    std::vector<sebdb::Transaction> out;
    sebdb::AuthQueryStats stats;
    int64_t q0 = NowNanos();
    {
      Span span(trace_query ? "verify.q2" : "verify.q4");
      s = q.Run(client.get(), &out, &stats);
    }
    int64_t q1 = NowNanos();
    in_system_ns += q1 - q0;
    n++;
    Latencies& cls = trace_query ? q2_latency : q4_latency;
    if (!s.ok() || out.size() != expected) {
      result.failed++;
      latency.AddFailed();
      cls.AddFailed();
      if (result.failed <= 3) {
        result.Fail(Fmt("verified %s rejected or wrong: %s, %zu rows, ground "
                        "truth %llu",
                        trace_query ? "Q2" : "Q4", s.ToString().c_str(),
                        out.size(), static_cast<unsigned long long>(expected)));
      }
      continue;
    }
    rate.Add(q1);
    double ms = (q1 - q0) / 1e6;
    latency.Add(ms);
    cls.Add(ms);
    vo_bytes += stats.vo_bytes;
    rows += out.size();
    client_us += stats.client_micros;
    if (issued.size() < 4096) issued.push_back(q);
  }
  const int64_t t_stop = NowNanos();
  const double cpu1 = ProcessCpuSeconds();
  const std::vector<NodeSnapshot> after = SnapshotAll(nodes);
  const uint64_t rpc_bytes = net_bytes() - bytes0;
  Tracer::SetRequest(0);
  const double window_s = (t_stop - t_start) / 1e9;
  result.attempted = n;

  // ---- correctness: verified rows equal the SQL result ----
  // The chain does not move after the reopen, so every query pinned the
  // same height the SQL below runs at.
  sebdb::Random sample_rng(args.seed + 99);
  const int samples = args.smoke() ? 2 : 6;
  for (int i = 0; i < samples && !issued.empty(); i++) {
    const VerifiedQuery& q = issued[sample_rng.Uniform(issued.size())];
    std::vector<sebdb::Transaction> out;
    sebdb::AuthQueryStats stats;
    Status a = q.Run(client.get(), &out, &stats);
    const std::string sql = q.Sql();
    sebdb::ResultSet rs;
    Status b = nodes[i % nodes.size()]->ExecuteSql(sql, sebdb::ExecOptions(),
                                                   &rs);
    if (!a.ok() || !b.ok() || Tids(out) != Tids(rs) ||
        out.size() != rs.num_rows()) {
      result.Fail("verified rows differ from the SQL result: " + sql);
    }
  }

  // ---- validity and traffic report ----
  const double client_busy = 1.0 - in_system_ns / 1e9 / window_s;
  if (client_busy >= 0.9) {
    result.Fail(Fmt("client busy %.0f%% of the window outside the system",
                    client_busy * 100));
  }
  uint64_t drops = client_net->stats().messages_dropped;
  for (const auto& tcp : server_nets) drops += tcp->stats().messages_dropped;
  if (drops != 0) {
    result.Fail(Fmt("TCP network dropped %llu messages",
                    static_cast<unsigned long long>(drops)));
  }
  const MbBytes mb = MeasureMbBytes(nodes[0].get());
  const uint64_t kRebuildLru = 8ull << 20;
  if (mb.senid <= kRebuildLru && !args.smoke()) {
    result.Fail("SenID MB-trees fit the rebuild LRU; the chain is too small");
  }
  NodeSnapshot window = Delta(before, after);
  const double p50 = GeoMean({q2_latency.Median(), q4_latency.Median()});
  const double tail = latency.Quantile(kTail);
  if (!latency.HasTail(kTail)) result.Fail("too few verified queries for p90");
  result.Info("loop", "closed, 1 thin client, window 1, authenticated Q2 and "
                      "Q4 in turn, 1 prover + 2 auxiliary digests over TCP "
                      "loopback, injected delay 0");
  result.Info("verify_p50_ms", Fmt("%.3f", p50));
  result.Info("verify_q2_ms", Fmt("%.3f median, %.3f p90 over %zu queries",
                                  q2_latency.Median(), q2_latency.Quantile(0.9),
                                  q2_latency.size()));
  result.Info("verify_q4_ms", Fmt("%.3f median, %.3f p90 over %zu queries",
                                  q4_latency.Median(), q4_latency.Quantile(0.9),
                                  q4_latency.size()));
  result.Info("verify_p90_ms", Fmt("%.3f of %zu samples", tail, latency.size()));
  const uint64_t answered = n - result.failed;
  result.Info("vo_kb_per_query",
              Fmt("%.3f", answered ? vo_bytes / 1024.0 / answered : 0.0));
  result.Info("failed_ratio", Fmt("%.6f", n ? double(result.failed) / n : 0.0));
  result.Info("rows_per_query",
              Fmt("%.1f", answered ? double(rows) / answered : 0.0));
  result.Info("key_skew",
              Fmt("Zipf s=%.1f senders: top 1%% send %.3f of txns",
                  spec.sender_skew, chain.sender_top1pct_share));
  result.Info("cache_budgets",
              Fmt("MB-tree bytes SenID ALI %.1f MiB, amount ALI %.1f MiB vs "
                  "the 8 MiB rebuild LRU per ALI; chain %.1f MiB on disk vs "
                  "block cache 64 MiB, txn cache 16 MiB; %llu blocks read in "
                  "the window",
                  mb.senid / 1048576.0, mb.amount / 1048576.0,
                  DirBytes(dir + "/v0") / 1048576.0,
                  static_cast<unsigned long long>(window.blocks_read)));
  result.Info("client_busy", Fmt("%.3f of the window outside the system",
                                 client_busy));

  result.Set("setup_s", setup_s, "s");
  result.Info("verified_per_s", rate.Summary());
  result.Set("ops_per_s", rate.Median(), "1/s");
  result.Set("p50_ms", p50, "ms");
  result.Set("tail_ms", tail, "ms");
  result.Set("cpu_ms_per_op", answered ? (cpu1 - cpu0) * 1e3 / answered : 0,
             "ms");

  if (args.trace) {
    LayerInputs in;
    in.write = write;
    in.chained_txns = spec.txns;
    in.net_messages = sim_messages;
    in.net_bytes = sim_bytes;
    in.network = traced_sim.get();
    in.env = env.get();
    in.reopen_ms = reopen_ms;
    in.replayed_blocks = replayed;
    in.read = window;
    in.thin = traced_transport;
    in.verified = answered;
    in.verified_rows = rows;
    in.vo_bytes = vo_bytes;
    in.client_verify_us = client_us;
    in.rpc_bytes = rpc_bytes;
    in.rpc_retries = rpc->retries();
    FillLayerMetrics(in, &result);
  }
  teardown();
  return result;
}

}  // namespace perfbench
