#include "harness.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/clock.h"
#include "sql/catalog.h"
#include "trace.h"

namespace perfbench {

using sebdb::KeyStore;
using sebdb::SebdbNode;
using sebdb::Status;
using sebdb::Transaction;
using sebdb::Value;

sebdb::NodeOptions MakeNodeOptions(const std::string& id,
                                   const std::string& dir,
                                   std::vector<std::string> participants,
                                   sebdb::Env* env) {
  sebdb::NodeOptions options;
  options.node_id = id;
  options.data_dir = dir + "/" + id;
  options.consensus = sebdb::ConsensusKind::kKafka;
  options.participants = std::move(participants);
  options.consensus_options.max_batch_txns = kBlockTxns;
  options.consensus_options.batch_timeout_millis = kBlockTimeoutMillis;
  options.chain.execute_cost_micros = 0;
  options.chain.store.sync_on_append = false;
  options.chain.store.env = env;
  options.enable_gossip = false;
  options.enable_repair = false;
  return options;
}

Status StartNodes(const std::vector<std::string>& ids, const std::string& dir,
                  sebdb::Network* network, KeyStore* keystore,
                  sebdb::OffchainDb* offchain, sebdb::Env* env,
                  std::vector<std::unique_ptr<SebdbNode>>* out) {
  for (const auto& id : ids) {
    auto node = std::make_unique<SebdbNode>(MakeNodeOptions(id, dir, ids, env),
                                            keystore, offchain);
    Status s = node->Start(network);
    if (!s.ok()) return s;
    out->push_back(std::move(node));
  }
  return Status::OK();
}

void StopNodes(std::vector<std::unique_ptr<SebdbNode>>* nodes) {
  for (auto& node : *nodes) node->Stop();
  nodes->clear();
}

Status CreateDonationSchema(const std::vector<std::unique_ptr<SebdbNode>>& nodes,
                            KeyStore* keystore, bool tag_column) {
  struct Table {
    const char* name;
    std::vector<sebdb::ColumnDef> columns;
  };
  const Table tables[] = {
      {"donate",
       {{"donor", sebdb::ValueType::kString},
        {"project", sebdb::ValueType::kString},
        {"amount", sebdb::ValueType::kInt64}}},
      {"transfer",
       {{"project", sebdb::ValueType::kString},
        {"donor", sebdb::ValueType::kString},
        {"organization", sebdb::ValueType::kString},
        {"amount", sebdb::ValueType::kInt64}}},
      {"distribute",
       {{"project", sebdb::ValueType::kString},
        {"organization", sebdb::ValueType::kString},
        {"donee", sebdb::ValueType::kString},
        {"amount", sebdb::ValueType::kInt64}}},
  };
  // All three schema txns go out together so they share one block.
  SebdbNode* first = nodes.front().get();
  Submitter submitter(kWindow);
  uint64_t tag = 0;
  for (const auto& table : tables) {
    std::vector<sebdb::ColumnDef> columns = table.columns;
    if (tag_column) columns.push_back({"tag", sebdb::ValueType::kInt64});
    sebdb::Schema schema;
    Status s = sebdb::Schema::Create(table.name, columns, &schema);
    if (!s.ok()) return s;
    Transaction txn = sebdb::Catalog::MakeSchemaTransaction(schema);
    txn.set_ts(sebdb::SystemClock::Default()->NowMicros());
    s = keystore->SignTransaction(first->node_id(), &txn);
    if (!s.ok()) return s;
    submitter.Submit(first, std::move(txn), tag++);
  }
  if (!submitter.Drain(30)) return Status::TimedOut("schema not committed");
  for (const auto& ack : submitter.TakeAcks()) {
    if (!ack.ok) return Status::Aborted("schema txn failed");
  }
  if (!WaitForHeight(nodes, first->chain().height(), 30)) {
    return Status::TimedOut("schema block did not replicate");
  }
  const char* ddl[] = {"CREATE INDEX ON donate(amount)",
                       "CREATE INDEX ON transfer(organization)",
                       "CREATE INDEX ON distribute(organization)",
                       "CREATE INDEX ON distribute(donee)"};
  for (const auto& node : nodes) {
    for (const char* sql : ddl) {
      sebdb::ResultSet rs;
      Status s = node->ExecuteSql(sql, sebdb::ExecOptions(), &rs);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

bool WaitForHeight(const std::vector<std::unique_ptr<SebdbNode>>& nodes,
                   uint64_t height, double timeout_seconds) {
  double deadline = NowSeconds() + timeout_seconds;
  for (const auto& node : nodes) {
    while (node->chain().height() < height) {
      if (NowSeconds() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return true;
}

// ---- Submitter ----

void Submitter::Submit(SebdbNode* node, Transaction txn, uint64_t tag) {
  {
    sebdb::MutexLock lock(&mu_);
    while (outstanding_ >= window_) cv_.Wait(mu_);
    outstanding_++;
  }
  // The engine may report a refusal through the callback, the return value
  // or both; `fired` makes sure it is counted once.
  auto fired = std::make_shared<std::atomic<bool>>(false);
  int64_t submit_ns = NowNanos();
  auto done = [this, fired, tag, submit_ns](Status status) {
    if (fired->exchange(true)) return;
    int64_t ack_ns = NowNanos();
    sebdb::MutexLock lock(&mu_);
    acks_.push_back({tag, submit_ns, ack_ns, status.ok()});
    outstanding_--;
    cv_.NotifyAll();
  };
  Status s;
  {
    Span span("consensus.submit");
    s = node->SubmitAsync(std::move(txn), done);
  }
  if (!s.ok()) done(s);
}

bool Submitter::Drain(double timeout_seconds) {
  sebdb::MutexLock lock(&mu_);
  double deadline = NowSeconds() + timeout_seconds;
  while (outstanding_ > 0) {
    double left = deadline - NowSeconds();
    if (left <= 0) return false;
    cv_.WaitFor(mu_, std::chrono::milliseconds(
                         static_cast<int64_t>(left * 1000) + 1));
  }
  return true;
}

std::vector<Submitter::Ack> Submitter::TakeAcks() {
  sebdb::MutexLock lock(&mu_);
  return std::move(acks_);
}

// ---- chain generator ----

ChainSpec QueryChainSpec(bool smoke) {
  ChainSpec spec;
  if (smoke) {
    spec.txns = 3000;
    spec.senders = 200;
    spec.donors = 200;
    spec.projects = 20;
    spec.amount_max = 5000;
    spec.organizations = 3000;
    spec.donees = 2000;
    spec.donorinfo_rows = 200;
  }
  return spec;
}

ChainSpec VerifyChainSpec(bool smoke) {
  ChainSpec spec = QueryChainSpec(smoke);
  if (!smoke) spec.txns = 120000;
  return spec;
}

namespace {

template <typename T>
void Shuffle(std::vector<T>* v, sebdb::Random* rng) {
  for (size_t i = v->size(); i > 1; i--) std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
}

// n Zipf ranks with (almost exactly) the Zipf proportions, in seeded random
// order: evenly spread quantiles, then shuffled.
void SpreadRanks(const Zipf& zipf, size_t n, sebdb::Random* rng,
                 std::vector<uint64_t>* out) {
  SpreadDraws u(rng);
  out->resize(n);
  for (auto& r : *out) r = zipf.Rank(u.Next());
  Shuffle(out, rng);
}

}  // namespace

ChainStream::ChainStream(const ChainSpec& spec, uint64_t seed)
    : spec_(spec),
      rng_(seed * 0x9e3779b97f4a7c15ULL + 17),
      sender_zipf_(spec.senders, spec.sender_skew),
      donor_zipf_(spec.donors, 0.8),
      project_zipf_(spec.projects, 0.8),
      amount_zipf_(spec.amount_max, spec.amount_skew) {
  // Rank -> identity is a seeded permutation, so the popular senders differ
  // from seed to seed.
  std::vector<uint64_t> perm(spec.senders);
  for (uint64_t i = 0; i < spec.senders; i++) perm[i] = i;
  Shuffle(&perm, &rng_);
  for (uint64_t i = 0; i < spec.senders; i++) {
    sender_names_.push_back("u" + std::to_string(perm[i]));
  }
}

void ChainStream::Refill() {
  SpreadRanks(sender_zipf_, kChunk, &rng_, &senders_);
  SpreadRanks(donor_zipf_, kChunk, &rng_, &donors_);
  SpreadRanks(project_zipf_, kChunk, &rng_, &projects_);
  SpreadRanks(amount_zipf_, kChunk, &rng_, &amounts_);
  kinds_.resize(kChunk);
  for (size_t i = 0; i < kChunk; i++) kinds_[i] = i % 10 < 6 ? 0 : (i % 10 < 8 ? 1 : 2);
  Shuffle(&kinds_, &rng_);
  next_ = 0;
}

GenTxn ChainStream::Next() {
  if (next_ == kChunk) Refill();
  const size_t i = next_++;
  emitted_++;
  if (senders_[i] < std::max<uint64_t>(1, spec_.senders / 100)) top_sender_txns_++;
  GenTxn txn;
  txn.sender = sender_names_[senders_[i]];
  std::string donor = "d" + std::to_string(donors_[i]);
  std::string project = "p" + std::to_string(projects_[i]);
  Value amount = Value::Int(static_cast<int64_t>(amounts_[i]) + 1);
  if (kinds_[i] == 0) {
    txn.table = "donate";
    txn.values = {Value::Str(donor), Value::Str(project), amount};
  } else if (kinds_[i] == 1) {
    std::string org = "o" + std::to_string(rng_.Uniform(spec_.organizations));
    txn.table = "transfer";
    txn.values = {Value::Str(project), Value::Str(donor), Value::Str(org), amount};
  } else {
    std::string org = "o" + std::to_string(rng_.Uniform(spec_.organizations));
    std::string donee = "e" + std::to_string(rng_.Uniform(spec_.donees));
    txn.table = "distribute";
    txn.values = {Value::Str(project), Value::Str(org), Value::Str(donee), amount};
  }
  return txn;
}

double ChainStream::sender_top1pct_share() const {
  return emitted_ ? static_cast<double>(top_sender_txns_) / emitted_ : 0.0;
}

GeneratedChain GenerateChain(const ChainSpec& spec, uint64_t seed) {
  GeneratedChain out;
  out.spec = spec;
  ChainStream stream(spec, seed);
  out.sender_names = stream.sender_names();
  std::map<std::string, uint64_t> transfer_orgs, distribute_orgs;
  out.txns.reserve(spec.txns);
  for (uint64_t i = 0; i < spec.txns; i++) {
    GenTxn txn = stream.Next();
    if (txn.table == "donate") {
      out.donate_amounts.push_back(txn.values[2].AsInt());
    } else if (txn.table == "transfer") {
      transfer_orgs[txn.values[2].AsString()]++;
    } else {
      distribute_orgs[txn.values[1].AsString()]++;
      const uint64_t donee = std::stoull(txn.values[2].AsString().substr(1));
      if (donee < spec.donorinfo_rows) out.q6_rows++;
    }
    out.rows_by_sender[txn.sender]++;
    out.txns.push_back(std::move(txn));
  }
  for (const auto& [org, count] : transfer_orgs) {
    auto it = distribute_orgs.find(org);
    if (it != distribute_orgs.end()) out.q5_rows += count * it->second;
  }
  std::sort(out.donate_amounts.begin(), out.donate_amounts.end());
  out.sender_top1pct_share = stream.sender_top1pct_share();
  return out;
}

uint64_t GeneratedChain::RangeRows(int64_t lo, int64_t hi) const {
  auto first = std::lower_bound(donate_amounts.begin(), donate_amounts.end(), lo);
  auto last = std::upper_bound(donate_amounts.begin(), donate_amounts.end(), hi);
  return static_cast<uint64_t>(last - first);
}

uint64_t GeneratedChain::SenderRows(const std::string& sender) const {
  auto it = rows_by_sender.find(sender);
  return it == rows_by_sender.end() ? 0 : it->second;
}

Status FillOffchain(const ChainSpec& spec, sebdb::OffchainDb* db) {
  Status s = db->CreateTable("donorinfo", {{"donee", sebdb::ValueType::kString},
                                           {"name", sebdb::ValueType::kString}});
  if (!s.ok()) return s;
  for (uint64_t i = 0; i < spec.donorinfo_rows; i++) {
    s = db->Insert("donorinfo", {Value::Str("e" + std::to_string(i)),
                                 Value::Str("name" + std::to_string(i))});
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void AddIdentities(KeyStore* keystore, uint64_t senders,
                   const std::vector<std::string>& node_ids) {
  for (const auto& id : node_ids) keystore->AddIdentity(id, "secret-" + id);
  for (uint64_t i = 0; i < senders; i++) {
    std::string id = "u" + std::to_string(i);
    keystore->AddIdentity(id, "secret-" + id);
  }
}

Status SubmitChain(const std::vector<std::unique_ptr<SebdbNode>>& nodes,
                   const GeneratedChain& chain) {
  Submitter submitter(kWindow);
  for (size_t i = 0; i < chain.txns.size(); i++) {
    const GenTxn& gen = chain.txns[i];
    SebdbNode* node = nodes[i % nodes.size()].get();
    Transaction txn;
    Status s;
    {
      Span span("core.sign");
      s = node->MakeInsertTransaction(gen.sender, gen.table, gen.values, &txn);
    }
    if (!s.ok()) return s;
    submitter.Submit(node, std::move(txn), i);
  }
  if (!submitter.Drain(120)) return Status::TimedOut("chain build stalled");
  for (const auto& ack : submitter.TakeAcks()) {
    if (!ack.ok) return Status::Aborted("chain build txn failed");
  }
  uint64_t height = 0;
  for (const auto& node : nodes) height = std::max(height, node->chain().height());
  if (!WaitForHeight(nodes, height, 60)) {
    return Status::TimedOut("replicas did not converge after the build");
  }
  return Status::OK();
}

// ---- stats snapshots ----

NodeSnapshot Snapshot(SebdbNode* node) {
  NodeSnapshot s;
  s.apply = node->apply_stats();
  s.cache = node->chain().cache_stats();
  sebdb::StorageStats& st = node->chain().store()->stats();
  s.blocks_read = st.blocks_read.load();
  s.txns_read = st.transactions_read.load();
  s.bytes_read = st.bytes_read.load();
  s.pool = node->buffer_stats();
  s.admission_rejects = node->mempool_stats().admission.rejected_total();
  s.checkpoints = node->chain().checkpoints_written();
  return s;
}

std::vector<NodeSnapshot> SnapshotAll(
    const std::vector<std::unique_ptr<SebdbNode>>& nodes) {
  std::vector<NodeSnapshot> out;
  for (const auto& node : nodes) out.push_back(Snapshot(node.get()));
  return out;
}

NodeSnapshot Delta(const std::vector<NodeSnapshot>& before,
                   const std::vector<NodeSnapshot>& after) {
  NodeSnapshot d;
  for (size_t i = 0; i < after.size() && i < before.size(); i++) {
    const NodeSnapshot& a = after[i];
    const NodeSnapshot& b = before[i];
    d.apply.blocks += a.apply.blocks - b.apply.blocks;
    d.apply.txns += a.apply.txns - b.apply.txns;
    d.apply.waves += a.apply.waves - b.apply.waves;
    d.apply.conflict_txns += a.apply.conflict_txns - b.apply.conflict_txns;
    d.apply.apply_micros += a.apply.apply_micros - b.apply.apply_micros;
    d.cache.block_hits += a.cache.block_hits - b.cache.block_hits;
    d.cache.block_misses += a.cache.block_misses - b.cache.block_misses;
    d.cache.txn_hits += a.cache.txn_hits - b.cache.txn_hits;
    d.cache.txn_misses += a.cache.txn_misses - b.cache.txn_misses;
    d.cache.block_usage += a.cache.block_usage;
    d.cache.txn_usage += a.cache.txn_usage;
    d.blocks_read += a.blocks_read - b.blocks_read;
    d.txns_read += a.txns_read - b.txns_read;
    d.bytes_read += a.bytes_read - b.bytes_read;
    d.pool.hits += a.pool.hits - b.pool.hits;
    d.pool.misses += a.pool.misses - b.pool.misses;
    d.admission_rejects += a.admission_rejects - b.admission_rejects;
    d.checkpoints += a.checkpoints - b.checkpoints;
  }
  return d;
}

std::vector<std::string> CanonicalRows(const sebdb::ResultSet& rs) {
  std::vector<std::string> out;
  out.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string line;
    for (const auto& v : row) {
      line += v.ToString();
      line += '\x1f';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

int TidColumn(const sebdb::ResultSet& rs) {
  for (size_t i = 0; i < rs.columns.size(); i++) {
    const std::string& c = rs.columns[i];
    if (c == "tid" || (c.size() > 4 && c.compare(c.size() - 4, 4, ".tid") == 0)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

KeyDraws::KeyDraws(const GeneratedChain& chain, uint64_t seed)
    : chain_(chain),
      rng_(seed * 0xd1b54a32d192ed03ULL + 101),
      senders_(chain.spec.senders, chain.spec.sender_skew),
      amounts_(chain.spec.amount_max, chain.spec.amount_skew),
      sender_u_(&rng_),
      amount_u_(&rng_),
      block_u_(&rng_) {}

const std::string& KeyDraws::Sender() {
  return chain_.sender_names[senders_.Rank(sender_u_.Next())];
}

void KeyDraws::AmountRange(int64_t* lo, int64_t* hi) {
  *lo = static_cast<int64_t>(amounts_.Rank(amount_u_.Next())) + 1;
  *hi = *lo + kRangeWidth - 1;
}

}  // namespace perfbench
