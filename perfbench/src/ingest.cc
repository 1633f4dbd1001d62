// Workload `ingest`: Fig 7's write path at saturation. Four in-process
// replicas with Kafka ordering (broker n0) over a zero-delay SimNetwork;
// one load thread keeps two blocks' worth of signed Q1 inserts
// outstanding, round robin across the replicas. The inserts come from the
// same ChainStream as the query chains, each with a unique load tag in a
// trailing column, for a fixed number of timed submits. Blocks are cut at
// 200 txns or 200 ms; under this load every block but the last is cut by
// size, checkpoint stalls aside.
#include <thread>

#include "layers.h"
#include "network/sim_network.h"
#include "storage/file.h"
#include "workloads.h"

namespace perfbench {

using sebdb::SebdbNode;
using sebdb::Status;
using sebdb::Value;

namespace {

// Each periodic checkpoint stalls the replicas for longer than the cut
// timeout. The commits caught behind the stalls are a few tenths of a
// percent of a run's: p99 lies below them, p99.9 inside them, so p99.9
// measures the stall.
constexpr double kTail = 0.999;

// The timed window is a fixed amount of work, `seconds` x kReferenceTps
// submits (about `seconds` seconds on the 4-vCPU reference host), not a
// fixed time. Each checkpoint writes state that grows with the chain, so in
// a fixed time a faster run would reach more and larger checkpoints and
// hold more memory: tail_ms and peak_rss_mb would move against a
// throughput gain, and a slow host phase would cut a checkpoint out of the
// window. With fixed work every run builds the same chain and stalls at
// the same heights. The warm-up is one second's worth.
constexpr uint64_t kReferenceTps = 24000;

// Txn content of one replica's chain: how often each load tag appears,
// plus per-height Merkle roots and block sizes.
struct ReplicaScan {
  std::vector<uint32_t> tag_counts;
  std::vector<sebdb::Hash256> roots;
  std::vector<uint32_t> block_txns;
  uint64_t user_bytes = 0;  // encoded bytes of the generated txns
  Status status;
};

void ScanReplica(SebdbNode* node, uint64_t height, uint64_t tags,
                 ReplicaScan* out) {
  out->tag_counts.assign(tags, 0);
  for (uint64_t h = 0; h < height; h++) {
    std::shared_ptr<const sebdb::Block> block;
    Status s = node->chain().store()->ReadBlock(h, &block);
    if (!s.ok()) {
      out->status = s;
      return;
    }
    out->roots.push_back(block->header().trans_root);
    out->block_txns.push_back(block->header().num_transactions);
    for (const auto& txn : block->transactions()) {
      if (txn.sender().empty() || txn.sender()[0] != 'u') continue;
      // The last value of every generated insert is its load tag.
      const Value& tag = txn.values().back();
      if (tag.type() != sebdb::ValueType::kInt64) continue;
      uint64_t t = static_cast<uint64_t>(tag.AsInt());
      if (t < tags) out->tag_counts[t]++;
      std::string encoded;
      txn.EncodeTo(&encoded);
      out->user_bytes += encoded.size();
    }
  }
}

}  // namespace

RunResult RunIngest(const Args& args) {
  RunResult result;
  const bool smoke = args.smoke();
  const std::vector<std::string> ids = {"n0", "n1", "n2", "n3"};
  const ChainSpec spec = QueryChainSpec(smoke);

  sebdb::KeyStore keystore;
  AddIdentities(&keystore, spec.senders, ids);

  std::unique_ptr<sebdb::SimNetwork> sim;
  std::unique_ptr<TracingNetwork> traced_net;
  std::unique_ptr<TracingEnv> env;
  sebdb::Network* net = nullptr;
  std::vector<std::unique_ptr<SebdbNode>> nodes;
  std::string dir;
  int attempt = 0;

  auto setup = [&]() -> Status {
    dir = args.data_dir + "/ingest" + std::to_string(attempt++);
    sim = std::make_unique<sebdb::SimNetwork>();
    net = sim.get();
    if (args.trace) {
      traced_net = std::make_unique<TracingNetwork>(sim.get());
      net = traced_net.get();
      env = std::make_unique<TracingEnv>(sebdb::Env::Default());
    }
    Status s = StartNodes(ids, dir, net, &keystore, nullptr, env.get(), &nodes);
    if (!s.ok()) return s;
    return CreateDonationSchema(nodes, &keystore, /*tag_column=*/true);
  };
  auto teardown = [&] {
    StopNodes(&nodes);
    sim->Shutdown();
    sebdb::RemoveDirRecursive(dir);
  };
  double setup_s = 0;
  Status s = RepeatSetup(3, setup, teardown, &setup_s);
  if (!s.ok()) {
    result.Fail("setup: " + s.ToString());
    return result;
  }
  const uint64_t first_load_height = nodes[0]->chain().height();

  ChainStream stream(spec, args.seed);
  Submitter submitter(kWindow);
  uint64_t tag = 0;
  auto submit_one = [&]() -> bool {
    GenTxn gen = stream.Next();
    gen.values.push_back(Value::Int(static_cast<int64_t>(tag)));
    SebdbNode* node = nodes[tag % nodes.size()].get();
    sebdb::Transaction txn;
    Status st;
    {
      Span span("core.sign");
      st = node->MakeInsertTransaction(gen.sender, gen.table,
                                       std::move(gen.values), &txn);
    }
    if (!st.ok()) {
      result.Fail("sign: " + st.ToString());
      return false;
    }
    submitter.Submit(node, std::move(txn), tag++);
    return true;
  };

  // Warm-up, then the timed window.
  const uint64_t warmup = smoke ? kReferenceTps / 4 : kReferenceTps;
  while (tag < warmup) {
    if (!submit_one()) return result;
  }
  const uint64_t first_tag = tag;
  const uint64_t last_tag =
      first_tag + static_cast<uint64_t>(args.seconds) * kReferenceTps;
  const std::vector<NodeSnapshot> before = SnapshotAll(nodes);
  const double cpu0 = ProcessCpuSeconds();
  const double thread_cpu0 = ThreadCpuSeconds();
  const int64_t t_start = NowNanos();
  while (tag < last_tag) {
    if (!submit_one()) return result;
  }
  const double submit_s = (NowNanos() - t_start) / 1e9;
  const double thread_cpu1 = ThreadCpuSeconds();
  if (!submitter.Drain(60)) result.Fail("outstanding submits never acked");
  const double cpu1 = ProcessCpuSeconds();
  const std::vector<NodeSnapshot> after = SnapshotAll(nodes);

  std::vector<Submitter::Ack> acks = submitter.TakeAcks();
  std::vector<uint8_t> acked(tag, 0);
  Latencies latency;
  uint64_t window_commits = 0, failed = 0;
  int64_t t_stop = t_start;
  for (const auto& ack : acks) {
    if (ack.ok) acked[ack.tag] = 1;
    if (ack.tag < first_tag) continue;
    if (ack.ok) {
      window_commits++;
      t_stop = std::max(t_stop, ack.ack_ns);
      latency.Add((ack.ack_ns - ack.submit_ns) / 1e6);
    } else {
      latency.AddFailed();
      failed++;
    }
  }
  // One-second slices up to the last timed commit; a trailing part second
  // is left out.
  const int whole_seconds =
      std::max<int>(1, static_cast<int>((t_stop - t_start) / 1000000000));
  RateSlices rate(t_start, whole_seconds, whole_seconds);
  for (const auto& ack : acks) {
    if (ack.ok && ack.tag >= first_tag) rate.Add(ack.ack_ns);
  }
  result.attempted = last_tag - first_tag;
  // Timed submits that never produced an ack count as failed.
  uint64_t unacked = result.attempted - std::min<uint64_t>(
                                            result.attempted, latency.size());
  for (uint64_t i = 0; i < unacked; i++) latency.AddFailed();
  result.failed = failed + unacked;
  if (result.failed > 0) {
    result.Fail(Fmt("%llu of %llu timed submits were refused or never acked",
                    static_cast<unsigned long long>(result.failed),
                    static_cast<unsigned long long>(result.attempted)));
  }

  // ---- correctness: every acked txn exactly once on every replica ----
  uint64_t height = 0;
  for (const auto& node : nodes) height = std::max(height, node->chain().height());
  if (!WaitForHeight(nodes, height, 30)) result.Fail("replica heights differ");
  std::vector<ReplicaScan> scans(nodes.size());
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < nodes.size(); i++) {
      threads.emplace_back(ScanReplica, nodes[i].get(), height, tag, &scans[i]);
    }
    for (auto& t : threads) t.join();
  }
  uint64_t acked_total = 0;
  for (uint64_t t = 0; t < tag; t++) acked_total += acked[t];
  for (size_t i = 0; i < scans.size(); i++) {
    const ReplicaScan& scan = scans[i];
    if (!scan.status.ok()) {
      result.Fail(ids[i] + " read: " + scan.status.ToString());
      continue;
    }
    uint64_t missing = 0, duplicated = 0;
    for (uint64_t t = 0; t < tag; t++) {
      uint32_t expected = acked[t];
      if (args.wrong_truth && t == first_tag) expected++;
      if (expected > 0 && scan.tag_counts[t] != expected) missing++;
      if (scan.tag_counts[t] > 1) duplicated++;
    }
    if (missing > 0 || duplicated > 0) {
      result.Fail(Fmt("%s: %llu acked txns not present exactly once, %llu "
                      "duplicated",
                      ids[i].c_str(), static_cast<unsigned long long>(missing),
                      static_cast<unsigned long long>(duplicated)));
    }
    if (scan.roots != scans[0].roots) {
      result.Fail(ids[i] + ": per-height Merkle roots differ from n0");
    }
  }

  // ---- validity ----
  // A periodic checkpoint stalls all four replicas at the same height for
  // longer than the 200 ms cut timeout; the acks behind it hold the window
  // full. The txns already in flight fill at most the window's two blocks,
  // so the broker cuts short one of the blocks at the checkpoint height or
  // the two after it, and one more for every further 200 ms the stall
  // lasts. That run of short blocks is the stall itself, not an
  // under-loaded broker, and is the only exemption.
  const uint64_t ckpt_interval =
      sebdb::DefaultNodeChainOptions().checkpoint.interval_blocks;
  const uint64_t in_flight_blocks = kWindow / kBlockTxns;
  uint64_t size_cut = 0, partial = 0, stall_cut = 0;
  bool in_stall = false;
  const ReplicaScan& s0 = scans[0];
  for (uint64_t h = first_load_height; h + 1 < s0.block_txns.size(); h++) {
    const bool full = s0.block_txns[h] == kBlockTxns;
    in_stall =
        !full && (h % ckpt_interval <= in_flight_blocks || in_stall);
    if (full) {
      size_cut++;
    } else if (in_stall) {
      stall_cut++;
    } else if (partial++ == 0) {
      result.Info("first_timeout_cut",
                  Fmt("height %llu (%llu past a checkpoint height) of %zu "
                      "holds %u txns; the two before hold %u and %u",
                      static_cast<unsigned long long>(h),
                      static_cast<unsigned long long>(h % ckpt_interval),
                      s0.block_txns.size(), s0.block_txns[h],
                      s0.block_txns[h - 1], s0.block_txns[h - 2]));
    }
  }
  if (partial > 0) {
    result.Fail(Fmt("%llu blocks before the last were cut by the timeout "
                    "outside a checkpoint stall",
                    static_cast<unsigned long long>(partial)));
  }
  const sebdb::NetworkStats net_after = sim->stats();
  if (net_after.messages_dropped != 0) {
    result.Fail(Fmt("network dropped %llu messages",
                    static_cast<unsigned long long>(net_after.messages_dropped)));
  }
  const double client_busy = (thread_cpu1 - thread_cpu0) / submit_s;
  if (client_busy >= 0.9) {
    result.Fail(Fmt("load thread busy %.0f%% of its submit loop",
                    client_busy * 100));
  }
  NodeSnapshot window = Delta(before, after);
  const double conflict_share =
      window.apply.txns > 0
          ? static_cast<double>(window.apply.conflict_txns) / window.apply.txns
          : 0;
  if (conflict_share <= 0 || conflict_share >= 1) {
    result.Fail(Fmt("apply conflict share %.3f is not strictly between 0 and 1",
                    conflict_share));
  }

  // ---- storage footprint (after Stop writes the closing checkpoint) ----
  NodeSnapshot whole = Delta(std::vector<NodeSnapshot>(nodes.size()),
                             SnapshotAll(nodes));
  const uint64_t user_bytes = scans[0].user_bytes;
  StopNodes(&nodes);
  double disk = 0;
  for (const auto& id : ids) disk += DirBytes(dir + "/" + id);
  const double space_amp = user_bytes > 0 ? disk / ids.size() / user_bytes : 0;

  // ---- report ----
  const double tps = rate.Median();
  result.Info("commit_tps_slices", rate.Summary());
  const double p50 = latency.Median();
  const double tail = latency.Quantile(kTail);
  if (!latency.HasTail(kTail)) result.Fail("too few commits for p99.9");
  result.Info("loop", Fmt("closed, 1 load thread, window %zu, round robin "
                          "over 4 replicas, injected delay 0; %llu timed "
                          "commits in %.2f s",
                          kWindow,
                          static_cast<unsigned long long>(window_commits),
                          (t_stop - t_start) / 1e9));
  result.Info("commit_tps", Fmt("%.1f txn/s", tps));
  result.Info("commit_p50_ms", Fmt("%.3f", p50));
  result.Info("commit_p99_ms", Fmt("%.3f", latency.Quantile(0.99)));
  result.Info("commit_p99.9_ms", Fmt("%.3f of %zu samples (max %.3f)", tail,
                                     latency.size(), latency.Quantile(1.0)));
  result.Info("failed_ratio", Fmt("%.6f", result.attempted > 0
                                              ? double(result.failed) /
                                                    result.attempted
                                              : 0.0));
  result.Info("space_amp", Fmt("%.3f (%.1f MiB per replica / %.1f MiB user "
                               "txns)",
                               space_amp, disk / ids.size() / 1048576.0,
                               user_bytes / 1048576.0));
  result.Info("conflict_share", Fmt("%.4f of txns placed past wave 0 "
                                    "(%.2f waves per block)",
                                    conflict_share,
                                    window.apply.blocks
                                        ? double(window.apply.waves) /
                                              window.apply.blocks
                                        : 0.0));
  result.Info("key_skew",
              Fmt("Zipf s=%.1f: top 1%% of %llu senders sent %.3f of txns; "
                  "Zipf s=0.8 over %llu donors and %llu projects",
                  spec.sender_skew,
                  static_cast<unsigned long long>(spec.senders),
                  stream.sender_top1pct_share(),
                  static_cast<unsigned long long>(spec.donors),
                  static_cast<unsigned long long>(spec.projects)));
  result.Info("blocks", Fmt("%llu cut by size, %llu short at a checkpoint "
                            "stall, %llu by timeout otherwise, before the "
                            "last; %llu checkpoints in the window",
                            static_cast<unsigned long long>(size_cut),
                            static_cast<unsigned long long>(stall_cut),
                            static_cast<unsigned long long>(partial),
                            static_cast<unsigned long long>(window.checkpoints)));
  result.Info("client_busy", Fmt("%.3f of the submit loop", client_busy));
  result.Info("cache_budgets",
              Fmt("chain %.1f MiB per replica vs block cache 64 MiB, txn "
                  "cache 16 MiB, checkpoint pool 64 MiB",
                  disk / ids.size() / 1048576.0));

  result.Set("setup_s", setup_s, "s");
  result.Set("ops_per_s", tps, "1/s");
  result.Set("p50_ms", p50, "ms");
  result.Set("tail_ms", tail, "ms");
  result.Set("cpu_ms_per_op",
             window_commits ? (cpu1 - cpu0) * 1e3 / window_commits : 0, "ms");

  if (args.trace) {
    LayerInputs in;
    in.write = whole;
    in.chained_txns = acked_total;
    in.net_messages = net_after.messages_sent;
    in.net_bytes = net_after.bytes_sent;
    in.network = traced_net.get();
    in.env = env.get();
    in.space_amp = space_amp;
    FillLayerMetrics(in, &result);
  }
  sim->Shutdown();
  sebdb::RemoveDirRecursive(dir);
  return result;
}

}  // namespace perfbench
