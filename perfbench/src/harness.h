// Building blocks the three workloads share: in-process SEBDB nodes over a
// given Network, the BChainBench donation schema, a closed-loop submitter
// with a fixed window, the seeded chain generator with its ground truth,
// and before/after snapshots of every stats accessor a node exposes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/node.h"
#include "offchain/offchain_db.h"

namespace perfbench {

// Paper block-cutting setting (Fig 7): 200 txns or 200 ms.
constexpr uint32_t kBlockTxns = 200;
constexpr int64_t kBlockTimeoutMillis = 200;
// Closed-loop window: two blocks' worth of outstanding requests.
constexpr size_t kWindow = 2 * kBlockTxns;

/// Node options shared by every workload: Kafka ordering with the paper's
/// cut, no modeled execute cost, no fsync per append (the defaults), no
/// gossip (consensus replicates, and gossip would add background traffic).
sebdb::NodeOptions MakeNodeOptions(const std::string& id,
                                   const std::string& dir,
                                   std::vector<std::string> participants,
                                   sebdb::Env* env);

/// Starts the nodes in `ids` under `dir` on `network`.
sebdb::Status StartNodes(const std::vector<std::string>& ids,
                         const std::string& dir, sebdb::Network* network,
                         sebdb::KeyStore* keystore, sebdb::OffchainDb* offchain,
                         sebdb::Env* env,
                         std::vector<std::unique_ptr<sebdb::SebdbNode>>* out);
void StopNodes(std::vector<std::unique_ptr<sebdb::SebdbNode>>* nodes);

/// Creates the donate / transfer / distribute tables through `node`'s
/// consensus (one block), then the layered indexes the queries use (Q4's
/// amount range, Q5's and Q6's join columns) on every node. With
/// `tag_column` every table gets a trailing int64 `tag`, which `ingest`
/// fills with a unique number per txn to find each acked txn on the chain.
sebdb::Status CreateDonationSchema(
    const std::vector<std::unique_ptr<sebdb::SebdbNode>>& nodes,
    sebdb::KeyStore* keystore, bool tag_column = false);

/// Waits until every node reaches `height` (or the deadline passes).
bool WaitForHeight(const std::vector<std::unique_ptr<sebdb::SebdbNode>>& nodes,
                   uint64_t height, double timeout_seconds);

/// Closed loop from one load thread: at most `window` submitted and not
/// yet acknowledged. Acks arrive on the nodes' delivery threads.
class Submitter {
 public:
  struct Ack {
    uint64_t tag = 0;
    int64_t submit_ns = 0;
    int64_t ack_ns = 0;
    bool ok = false;
  };

  explicit Submitter(size_t window) : window_(window) {}
  /// Blocks while the window is full, then submits `txn` to `node`.
  void Submit(sebdb::SebdbNode* node, sebdb::Transaction txn, uint64_t tag);
  /// Waits until nothing is outstanding; false on timeout.
  bool Drain(double timeout_seconds);
  std::vector<Ack> TakeAcks();

 private:
  const size_t window_;
  sebdb::Mutex mu_;
  sebdb::CondVar cv_;
  size_t outstanding_ GUARDED_BY(mu_) = 0;
  std::vector<Ack> acks_ GUARDED_BY(mu_);
};

/// One generated transaction (the program sees only these inputs).
struct GenTxn {
  std::string sender;
  std::string table;
  std::vector<sebdb::Value> values;
};

/// Shape of the generated donation traffic (BChainBench schema). The paper
/// fixes the schema and the queries but no mix or cardinalities; each value
/// here is chosen for a property the runs measure and print (README.md,
/// "Traffic").
struct ChainSpec {
  uint64_t txns = 60000;  // chain length for `query`; `ingest` streams
  uint64_t senders = 2000;
  double sender_skew = 0.9;
  uint64_t donors = 2000;
  uint64_t projects = 200;
  uint64_t amount_max = 100000;
  double amount_skew = 0.9;
  uint64_t organizations = 100000;  // uniform: Q5 joins stay selective
  uint64_t donees = 50000;
  uint64_t donorinfo_rows = 5000;   // off-chain rows for donees [0, n)
};

ChainSpec QueryChainSpec(bool smoke);
/// The same generator at twice the size: the SenID and donate.amount
/// MB-trees (about 18.6 and 9.8 MiB) both exceed the 8 MiB rebuild LRU, and
/// a verified query does enough hashing (tens of ms) that host scheduling
/// delays on its three RPC round trips stay a small share of it.
ChainSpec VerifyChainSpec(bool smoke);

/// The seeded transaction source of every workload: the three Q1 insert
/// tables, 60% donate, 20% transfer, 20% distribute, with Zipf senders,
/// donors, projects and amounts and uniform organizations and donees. It
/// works in chunks of kChunk txns, each holding the exact table mix and
/// Zipf proportions in seeded random order, so every stretch of the stream
/// has the same profile. `ingest` reads it without end; GenerateChain takes
/// the first `spec.txns`.
class ChainStream {
 public:
  /// Twenty 200-txn blocks; a multiple of 10 keeps the mix exact.
  static constexpr size_t kChunk = 4000;

  ChainStream(const ChainSpec& spec, uint64_t seed);
  GenTxn Next();
  /// Identity of each sender rank, a seeded permutation.
  const std::vector<std::string>& sender_names() const { return sender_names_; }
  /// Share of the txns so far sent by the top 1% of senders.
  double sender_top1pct_share() const;

 private:
  void Refill();

  const ChainSpec spec_;
  sebdb::Random rng_;
  std::vector<std::string> sender_names_;
  const Zipf sender_zipf_, donor_zipf_, project_zipf_, amount_zipf_;
  std::vector<uint64_t> senders_, donors_, projects_, amounts_;
  std::vector<uint8_t> kinds_;  // 0 donate, 1 transfer, 2 distribute
  size_t next_ = kChunk;        // position in the current chunk
  uint64_t emitted_ = 0;
  uint64_t top_sender_txns_ = 0;
};

/// Generated chain plus the ground truth every query class is checked
/// against.
struct GeneratedChain {
  ChainSpec spec;
  std::vector<GenTxn> txns;
  std::vector<std::string> sender_names;  // by Zipf rank
  std::map<std::string, uint64_t> rows_by_sender;
  std::vector<int64_t> donate_amounts;  // sorted
  uint64_t q5_rows = 0;  // transfer >< distribute on organization
  uint64_t q6_rows = 0;  // distribute >< donorinfo on donee
  double sender_top1pct_share = 0;  // share of txns from the top 1% senders

  uint64_t RangeRows(int64_t lo, int64_t hi) const;
  /// Rows TRACE OPERATOR = sender returns (0 for a sender never drawn).
  uint64_t SenderRows(const std::string& sender) const;
};

/// The first `spec.txns` txns of ChainStream(spec, seed) and their truth.
GeneratedChain GenerateChain(const ChainSpec& spec, uint64_t seed);

/// Fills `db` with the DonorInfo off-chain table Q6 joins against.
sebdb::Status FillOffchain(const ChainSpec& spec, sebdb::OffchainDb* db);

/// Registers every identity the workloads sign with.
void AddIdentities(sebdb::KeyStore* keystore, uint64_t senders,
                   const std::vector<std::string>& node_ids);

/// Builds the generated chain through `nodes`' own submit path (round robin,
/// closed loop, window kWindow). Signing happens in "core.sign" spans.
sebdb::Status SubmitChain(
    const std::vector<std::unique_ptr<sebdb::SebdbNode>>& nodes,
    const GeneratedChain& chain);

/// Every stats accessor of one node, as a value.
struct NodeSnapshot {
  sebdb::TxnSchedulerStats apply;
  sebdb::BlockStore::CacheStats cache;
  uint64_t blocks_read = 0;
  uint64_t txns_read = 0;
  uint64_t bytes_read = 0;
  sebdb::BufferManager::Stats pool;
  uint64_t admission_rejects = 0;  // MempoolStats
  uint64_t checkpoints = 0;
};
NodeSnapshot Snapshot(sebdb::SebdbNode* node);
/// Field-wise after - before, summed over nodes (cache usage takes `after`).
NodeSnapshot Delta(const std::vector<NodeSnapshot>& before,
                   const std::vector<NodeSnapshot>& after);
std::vector<NodeSnapshot> SnapshotAll(
    const std::vector<std::unique_ptr<sebdb::SebdbNode>>& nodes);

/// Rows of a result rendered to strings and sorted (order-free compare).
std::vector<std::string> CanonicalRows(const sebdb::ResultSet& rs);

/// Position of the transaction-id column in a result, or -1.
int TidColumn(const sebdb::ResultSet& rs);

/// Seeded query keys with the data's popularity: Zipf senders (Q2), Zipf
/// range starts over the amount domain with a fixed width (Q4) and Zipf
/// block recency (Q7), each from its own evenly spread stream.
class KeyDraws {
 public:
  static constexpr int64_t kRangeWidth = 10;
  KeyDraws(const GeneratedChain& chain, uint64_t seed);
  const std::string& Sender();
  void AmountRange(int64_t* lo, int64_t* hi);
  /// Rank in [0, n) of a Zipf(0.9) over block recency (0 = newest).
  uint64_t BlockRank(const Zipf& blocks) { return blocks.Rank(block_u_.Next()); }

 private:
  const GeneratedChain& chain_;
  sebdb::Random rng_;
  Zipf senders_;
  Zipf amounts_;
  SpreadDraws sender_u_;
  SpreadDraws amount_u_;
  SpreadDraws block_u_;
};

}  // namespace perfbench
