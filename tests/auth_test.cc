// Tests for src/auth: MB-tree VOs (soundness, completeness, tamper
// rejection), the ALI two-phase protocol and the credibility formula.
#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "auth/ali.h"
#include "auth/credibility.h"
#include "auth/mbtree.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "index/layered_index.h"
#include "sql/executor.h"
#include "storage/block.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::ScratchDir;

// Records are "rec<key>" strings; keys recoverable by stripping the prefix.
SortedRecordSource MakeRecords(const std::vector<int64_t>& keys) {
  SortedRecordSource records;
  for (int64_t k : keys) records.Add(Value::Int(k), "rec" + std::to_string(k));
  return records;
}

Status RecKeyFn(const Slice& record, Value* key) {
  std::string text = record.ToString();
  if (text.rfind("rec", 0) != 0) return Status::Corruption("bad record");
  *key = Value::Int(std::stoll(text.substr(3)));
  return Status::OK();
}

TEST(MbTreeTest, RootDeterministic) {
  auto a = MbTree::Build(MakeRecords({1, 2, 3, 4, 5}).Entries());
  auto b = MbTree::Build(MakeRecords({1, 2, 3, 4, 5}).Entries());
  EXPECT_EQ(a->root_hash(), b->root_hash());
  auto c = MbTree::Build(MakeRecords({1, 2, 3, 4, 6}).Entries());
  EXPECT_NE(a->root_hash(), c->root_hash());
}

TEST(MbTreeTest, PlainRangeLookup) {
  const SortedRecordSource records = MakeRecords({10, 20, 20, 30, 40});
  auto tree = MbTree::Build(records.Entries());
  std::vector<size_t> indices;
  Value lo = Value::Int(20), hi = Value::Int(30);
  ASSERT_TRUE(tree->Range(records, &lo, &hi, &indices).ok());
  EXPECT_EQ(indices.size(), 3u);
}

class MbTreeProofTest : public ::testing::TestWithParam<int> {};

TEST_P(MbTreeProofTest, RangeProofsVerifyExactResults) {
  int n = GetParam();
  std::vector<int64_t> keys;
  for (int i = 0; i < n; i++) keys.push_back(i * 2);  // even keys 0..2n-2
  const SortedRecordSource source = MakeRecords(keys);
  auto tree = MbTree::Build(source.Entries());

  Random rng(n);
  for (int q = 0; q < 30; q++) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(2 * n + 4)) - 2;
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(2 * n / 2 + 2));
    Value vlo = Value::Int(lo), vhi = Value::Int(hi);
    VerificationObject vo;
    ASSERT_TRUE(tree->ProveRange(source, &vlo, &vhi, &vo).ok());
    std::vector<std::string> records;
    ASSERT_TRUE(MbTree::VerifyRange(tree->root_hash(), vo, &vlo, &vhi,
                                    RecKeyFn, &records)
                    .ok())
        << "n=" << n << " range [" << lo << "," << hi << "]";
    size_t expected = 0;
    for (int64_t k : keys) {
      if (k >= lo && k <= hi) expected++;
    }
    EXPECT_EQ(records.size(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MbTreeProofTest,
                         ::testing::Values(1, 2, 3, 15, 16, 17, 64, 200));

TEST(MbTreeTest, EmptyResultProofVerifies) {
  const SortedRecordSource source = MakeRecords({10, 20, 30});
  auto tree = MbTree::Build(source.Entries());
  Value lo = Value::Int(21), hi = Value::Int(29);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(source, &lo, &hi, &vo).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(
      MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, RecKeyFn, &records)
          .ok());
  EXPECT_TRUE(records.empty());
}

TEST(MbTreeTest, EmptyTreeProof) {
  const SortedRecordSource source;
  auto tree = MbTree::Build(source.Entries());
  Value lo = Value::Int(0), hi = Value::Int(100);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(source, &lo, &hi, &vo).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(
      MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, RecKeyFn, &records)
          .ok());
  EXPECT_TRUE(records.empty());
}

TEST(MbTreeTest, UnboundedRangeDisclosesAll) {
  const SortedRecordSource source = MakeRecords({1, 2, 3, 4, 5});
  auto tree = MbTree::Build(source.Entries());
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(source, nullptr, nullptr, &vo).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(MbTree::VerifyRange(tree->root_hash(), vo, nullptr, nullptr,
                                  RecKeyFn, &records)
                  .ok());
  EXPECT_EQ(records.size(), 5u);
}

TEST(MbTreeTest, DuplicateKeysAllReturned) {
  const SortedRecordSource source = MakeRecords({5, 5, 5, 7, 7});
  auto tree = MbTree::Build(source.Entries());
  Value k = Value::Int(5);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(source, &k, &k, &vo).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(
      MbTree::VerifyRange(tree->root_hash(), vo, &k, &k, RecKeyFn, &records)
          .ok());
  EXPECT_EQ(records.size(), 3u);
}

TEST(MbTreeTest, TamperedRecordRejected) {
  const SortedRecordSource source = MakeRecords({10, 20, 30, 40});
  auto tree = MbTree::Build(source.Entries());
  Value lo = Value::Int(20), hi = Value::Int(30);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(source, &lo, &hi, &vo).ok());
  // Find and modify a full record anywhere in the VO.
  std::function<bool(VerificationObject::Node&)> tamper =
      [&](VerificationObject::Node& node) -> bool {
    for (auto& entry : node.entries) {
      if (entry.full && entry.record == "rec20") {
        entry.record = "rec21";  // forged value
        return true;
      }
    }
    for (auto& child : node.children) {
      if (tamper(child)) return true;
    }
    return false;
  };
  ASSERT_TRUE(tamper(vo.root));
  std::vector<std::string> records;
  EXPECT_TRUE(
      MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, RecKeyFn, &records)
          .IsVerificationFailed());
}

TEST(MbTreeTest, WithheldResultRejected) {
  const SortedRecordSource source = MakeRecords({10, 20, 30, 40});
  auto tree = MbTree::Build(source.Entries());
  Value lo = Value::Int(15), hi = Value::Int(35);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(source, &lo, &hi, &vo).ok());
  // Maliciously hide the in-range record "rec20" behind its hash.
  std::function<bool(VerificationObject::Node&)> hide =
      [&](VerificationObject::Node& node) -> bool {
    for (auto& entry : node.entries) {
      if (entry.full && entry.record == "rec20") {
        entry.hash = Sha256::Digest(entry.record);
        entry.full = false;
        entry.record.clear();
        return true;
      }
    }
    for (auto& child : node.children) {
      if (hide(child)) return true;
    }
    return false;
  };
  ASSERT_TRUE(hide(vo.root));
  std::vector<std::string> records;
  Status s =
      MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, RecKeyFn, &records);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
}

TEST(MbTreeTest, WrongRootRejected) {
  const SortedRecordSource source = MakeRecords({1, 2, 3});
  auto tree = MbTree::Build(source.Entries());
  Value lo = Value::Int(1), hi = Value::Int(2);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(source, &lo, &hi, &vo).ok());
  std::vector<std::string> records;
  Hash256 wrong = Sha256::Digest(Slice("not the root"));
  EXPECT_TRUE(MbTree::VerifyRange(wrong, vo, &lo, &hi, RecKeyFn, &records)
                  .IsVerificationFailed());
}

TEST(MbTreeTest, VoSerializationRoundTrip) {
  const SortedRecordSource source = MakeRecords({1, 2, 3, 4, 5, 6, 7, 8});
  auto tree = MbTree::Build(source.Entries());
  Value lo = Value::Int(3), hi = Value::Int(5);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(source, &lo, &hi, &vo).ok());
  std::string buf;
  vo.EncodeTo(&buf);
  EXPECT_EQ(vo.ByteSize(), buf.size());
  Slice input(buf);
  VerificationObject decoded;
  ASSERT_TRUE(VerificationObject::DecodeFrom(&input, &decoded).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(MbTree::VerifyRange(tree->root_hash(), decoded, &lo, &hi,
                                  RecKeyFn, &records)
                  .ok());
  EXPECT_EQ(records.size(), 3u);
}

// A hostile prover's VO: one full record above the range, then 200 000
// pruned entries. Every pruned entry is bounded from below by that record, so
// the VO is complete and reconstructs; the client must get there in time
// linear in the VO, not quadratic.
TEST(MbTreeTest, LongPrunedRunReconstructsInLinearTime) {
  constexpr size_t kPruned = 200000;
  VerificationObject vo;
  vo.root.kind = VerificationObject::Kind::kLeaf;
  vo.root.entries.resize(1 + kPruned);
  vo.root.entries[0].full = true;
  vo.root.entries[0].record = "rec500";
  for (size_t i = 1; i <= kPruned; i++) {
    vo.root.entries[i].hash.bytes[i % 32] = static_cast<uint8_t>(i);
  }
  Value lo = Value::Int(10), hi = Value::Int(20);
  std::vector<std::string> records;
  Hash256 root;
  ASSERT_TRUE(
      MbTree::ReconstructRoot(vo, &lo, &hi, RecKeyFn, &records, &root).ok());
  EXPECT_TRUE(records.empty());
  // With the record after the run, the run is bounded only from above: by
  // a key past hi it may hide the range, by a key below lo it cannot.
  std::swap(vo.root.entries.front(), vo.root.entries.back());
  EXPECT_TRUE(MbTree::ReconstructRoot(vo, &lo, &hi, RecKeyFn, &records, &root)
                  .IsVerificationFailed());
  vo.root.entries.back().record = "rec5";
  EXPECT_TRUE(
      MbTree::ReconstructRoot(vo, &lo, &hi, RecKeyFn, &records, &root).ok());
}

// ---- ALI ----

Block MakeBlockOf(BlockId height, std::vector<Transaction> txns) {
  BlockBuilder builder;
  builder.SetHeight(height).SetTimestamp(height * 100).SetFirstTid(height * 100 + 1);
  for (auto& txn : txns) builder.AddTransaction(std::move(txn));
  return std::move(builder).Build("sig");
}

ColumnExtractor AmountExtractor() {
  return [](const Transaction& txn, Value* out) {
    if (txn.tname() != "donate" || txn.values().empty()) return false;
    *out = txn.values()[0];
    return true;
  };
}

Status TxnAmountKeyFn(const Slice& record, Value* key) {
  Transaction txn;
  Slice input = record;
  Status s = Transaction::DecodeFrom(&input, &txn);
  if (!s.ok()) return s;
  *key = txn.GetColumn(5);  // first app column
  return Status::OK();
}

/// Serves blocks decoded from an in-memory vector, indexed by height.
AuthenticatedLayeredIndex::BlockLoader LoaderOver(
    const std::vector<std::shared_ptr<const Block>>* blocks) {
  return [blocks](BlockId bid, bool /*whole*/,
                  AuthenticatedLayeredIndex::RawBlock* out) {
    if (bid >= blocks->size()) return Status::NotFound("no such block");
    out->decoded = (*blocks)[bid];
    return Status::OK();
  };
}

/// Like a block store whose cache holds none of the blocks: a prove gets
/// each block as its serialized record, a rebuild gets it decoded.
AuthenticatedLayeredIndex::BlockLoader RecordLoaderOver(
    const std::vector<std::shared_ptr<const Block>>* blocks) {
  return [blocks](BlockId bid, bool whole,
                  AuthenticatedLayeredIndex::RawBlock* out) {
    if (bid >= blocks->size()) return Status::NotFound("no such block");
    if (whole) {
      out->decoded = (*blocks)[bid];
    } else {
      (*blocks)[bid]->EncodeTo(&out->record);
    }
    return Status::OK();
  };
}

class AliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LayeredIndexOptions options;
    options.histogram_buckets = 8;
    ali_ = std::make_unique<AuthenticatedLayeredIndex>("donate.amount.auth",
                                                       options,
                                                       AmountExtractor());
    ali_->SetBlockLoader(LoaderOver(&blocks_));
    // 10 blocks, block b holds amounts b*100 .. b*100+49.
    for (int b = 0; b < 10; b++) {
      std::vector<Transaction> txns;
      for (int i = 0; i < 50; i++) {
        txns.push_back(
            MakeTxn("donate", "org1", b * 100 + i, {Value::Int(b * 100 + i)}));
      }
      blocks_.push_back(
          std::make_shared<const Block>(MakeBlockOf(b, std::move(txns))));
      ASSERT_TRUE(ali_->AddBlock(*blocks_.back()).ok());
    }
  }

  std::vector<std::shared_ptr<const Block>> blocks_;
  std::unique_ptr<AuthenticatedLayeredIndex> ali_;
};

TEST_F(AliTest, TwoPhaseProtocolVerifies) {
  Value lo = Value::Int(120), hi = Value::Int(335);
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 10, &response).ok());
  EXPECT_GE(response.proofs.size(), 3u);  // blocks 1, 2, 3

  Hash256 digest;
  ASSERT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 10, &digest).ok());

  std::vector<std::string> records;
  ASSERT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &lo, &hi, TxnAmountKeyFn, {digest, digest},
                  /*required_matching=*/2, &records)
                  .ok());
  // Amounts 120..149, 200..249, 300..335.
  EXPECT_EQ(records.size(), 30u + 50u + 36u);
}

TEST_F(AliTest, MismatchedDigestRejected) {
  Value lo = Value::Int(120), hi = Value::Int(140);
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 10, &response).ok());
  Hash256 bogus = Sha256::Digest(Slice("byzantine"));
  std::vector<std::string> records;
  EXPECT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &lo, &hi, TxnAmountKeyFn, {bogus, bogus}, 2,
                  &records)
                  .IsVerificationFailed());
}

TEST_F(AliTest, OmittedBlockProofChangesDigest) {
  Value lo = Value::Int(120), hi = Value::Int(335);
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 10, &response).ok());
  Hash256 digest;
  ASSERT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 10, &digest).ok());
  // A malicious full node drops one visited block entirely.
  response.proofs.erase(response.proofs.begin() + 1);
  std::vector<std::string> records;
  EXPECT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &lo, &hi, TxnAmountKeyFn, {digest, digest}, 2,
                  &records)
                  .IsVerificationFailed());
}

TEST_F(AliTest, SnapshotPinnedAtLowerHeight) {
  Value lo = Value::Int(0), hi = Value::Int(10000);
  // Height pinned at 5: only blocks 0..4 participate.
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 5, &response).ok());
  EXPECT_EQ(response.proofs.size(), 5u);
  Hash256 digest;
  ASSERT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 5, &digest).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &lo, &hi, TxnAmountKeyFn, {digest}, 1, &records)
                  .ok());
  EXPECT_EQ(records.size(), 250u);
}

TEST_F(AliTest, ResponseSerializationRoundTrip) {
  Value lo = Value::Int(120), hi = Value::Int(140);
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 10, &response).ok());
  std::string buf;
  response.EncodeTo(&buf);
  Slice input(buf);
  AuthQueryResponse decoded;
  ASSERT_TRUE(AuthQueryResponse::DecodeFrom(&input, &decoded).ok());
  EXPECT_EQ(decoded.chain_height, response.chain_height);
  EXPECT_EQ(decoded.proofs.size(), response.proofs.size());
}

// ---- pinned proofs: one chain, three tree states ----
//
// Each row is one prove on one of three ALIs over the same chain, recorded as
// the SHA-256 of its encoded AuthQueryResponse and of its ComputeDigest
// output. Every row must come out the same whether the ALI's trees are
// in-memory tail trees, rebuilt from raw blocks after a checkpoint restore and
// kept in the rebuild LRU, or rebuilt on every prove (a zero LRU budget), and
// whether a prove gets its blocks decoded or as raw records.

enum PinnedAli { kSenid = 0, kTname = 1, kAmount = 2 };

struct PinnedProve {
  const char* name;
  PinnedAli ali;
  const char* lo;  // key text; nullptr = unbounded
  const char* hi;
  BlockId window_begin, window_end;  // visible blocks; both 0 = no window
  const char* response_sha256;
  const char* digest_sha256;
};

const std::vector<PinnedProve> kPinnedProves = {
    {"senid point", kSenid, "org3", "org3", 0, 0,
     "69eb76e789f6ffa53441e363871e70c561b1dc7f5898635e19a4c472a32542e5",
     "8b13cb038bcaba36f2d5dcedea5ba6eaefdf31318afba3670c7c606da915327f"},
    {"senid range", kSenid, "org1", "org4", 0, 0,
     "a6eab76b31ef2b26ba8b1f7941a83e9211b41c36d93338251e49b14acbb7872c",
     "9f7826049478c52d29217b4471b416a78b2953b35b5ac838bad51cc6746986da"},
    {"senid empty range", kSenid, "org3a", "org3z", 0, 0,
     "e4ab5012eff32a5171b3672b59d29950fe8b3dcb4d2dadf971ebbcbc2fbb0d41",
     "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456"},
    {"senid unbounded", kSenid, nullptr, nullptr, 0, 0,
     "ce73b4ee373dc855d6738f6e10d080d5a2b28bcd90a2633001e557a5fa3c1f24",
     "9f7826049478c52d29217b4471b416a78b2953b35b5ac838bad51cc6746986da"},
    {"senid windowed trace", kSenid, "org2", "org2", 10, 25,
     "a7ce053e2decd726c99f5ef90c85f5b38e3903c7421276908cdac436d5ecc99b",
     "249c4ec7140a52063ef5c159728fd8d32f70e551a6f6b6cb876b2adb86a44d05"},
    {"tname point", kTname, "donate", "donate", 0, 0,
     "322a45f401954cb13c7799e2dd43df7afcda481cdc5d81535c39800a14ecc65e",
     "7e875d5151cb1cbabaaffeacf082025ec8579834148fb89fdef3185eddc908bf"},
    {"tname empty range", kTname, "nope", "nope", 0, 0,
     "e4ab5012eff32a5171b3672b59d29950fe8b3dcb4d2dadf971ebbcbc2fbb0d41",
     "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456"},
    {"tname unbounded", kTname, nullptr, nullptr, 0, 0,
     "e1d705122d30db0d0c5e3a2d01fe352169dead6e21d3041a79eaead038ced02a",
     "35113f26e7da7b0efba487ba033ddda2ad569e26d5c9932b0ab478aeff639c9e"},
    {"tname windowed trace", kTname, "transfer", "transfer", 3, 31,
     "22ca96f9980c14f7504fac1972c5546fc6d10663d50d116b9abbb936d29beace",
     "13122ab9de06852959ebbf6ae68f063b8fb9f42931ea6f9cd533c51fac758fa2"},
    {"amount point", kAmount, "250", "250", 0, 0,
     "92a9a7b0405d9c53d733ecb131ebdc924e9b289b5093fda363ddcfadd1221f6a",
     "9b3f31e898a2c8671245753b944df818f11c693338b5183b87aefcc0a432edb3"},
    {"amount range", kAmount, "100", "400", 0, 0,
     "6555ff1fa102d5ce4a5e0a9a862142a07d01fdaff7f105d302d4c0389e02ec0e",
     "d92f67383e2962d3184011ea339bae6b45653716bfa8e620014be000ede36ea0"},
    {"amount empty range", kAmount, "101", "109", 0, 0,
     "242cd01d15b3f890d2c38c5facf27468e3e6269a88235dd737e51d7d4c2ecc02",
     "15799d870563e42d174ffdaae0c9da5eda2a5787b739d37941a06e96c98096a1"},
    {"amount below every key", kAmount, "-50", "-1", 0, 0,
     "5dfbf7382e5b015c76fb2d4b459409459233b5a93a0ae9a51eaeda83594b4c9c",
     "3192bece67101a886fcc5234e7f81be4bf2fbb498c84dc0a6a101ca4fc9338ed"},
    {"amount lower-unbounded", kAmount, nullptr, "300", 0, 0,
     "6d0ecfe50b742d310f9ff58a56633f65c2de4e38bad9c4bc65d041f5ba7b83a9",
     "9a38577fea95f84267fb362a6a235e16bb064ad94d83ff1d2215f32bacd15ad5"},
    {"amount unbounded", kAmount, nullptr, nullptr, 0, 0,
     "f592903593bed1dac9cfa2c211d0d7328356d3f12de45f83b9453c8a133f5fcf",
     "d92f67383e2962d3184011ea339bae6b45653716bfa8e620014be000ede36ea0"},
    {"amount windowed range", kAmount, "200", "600", 5, 30,
     "b6e7e899a5007549c67ffaa25a6b06870b5641e7eeeec2621babcd6cadf31a47",
     "877cbd3de974ec5c06b77c20fd0354d43e0cd04b7a85492b224063e51032758c"},
};

constexpr int kPinnedBlocks = 40;
constexpr int kPinnedCheckpoint = 27;  // blocks frozen by the checkpoint

/// 40 blocks over three tables and seven senders. Some blocks are empty and
/// some hold no donate txn (no tree in the amount ALI); amounts are
/// multiples of 10, so ranges strictly between two of them are empty.
std::vector<std::shared_ptr<const Block>> PinnedChain() {
  Random rng(4242);
  std::vector<std::shared_ptr<const Block>> blocks;
  TransactionId tid = 1;
  for (int b = 0; b < kPinnedBlocks; b++) {
    BlockBuilder builder;
    builder.SetHeight(b).SetTimestamp(1000 + b * 10).SetFirstTid(tid);
    const int n = b % 11 == 4 ? 0 : 10 + static_cast<int>(rng.Uniform(50));
    for (int i = 0; i < n; i++) {
      const std::string sender = "org" + std::to_string(rng.Uniform(7));
      const Timestamp ts = 1000 + b * 10;
      const uint64_t table = b % 7 == 3 ? 1 + rng.Uniform(2) : rng.Uniform(3);
      const int64_t amount = 10 * static_cast<int64_t>(rng.Uniform(100));
      if (table == 0) {
        builder.AddTransaction(MakeTxn(
            "donate", sender, ts,
            {Value::Int(amount), Value::Str("p" + std::to_string(i % 5))}));
      } else if (table == 1) {
        builder.AddTransaction(
            MakeTxn("transfer", sender, ts,
                    {Value::Int(amount), Value::Str("school")}));
      } else {
        builder.AddTransaction(
            MakeTxn("note", sender, ts, {Value::Str("n" + std::to_string(i))}));
      }
      tid++;
    }
    blocks.push_back(std::make_shared<const Block>(std::move(builder).Build("sig")));
  }
  return blocks;
}

/// The three pinned ALIs: SenID, Tname (discrete) and donate.amount
/// (continuous), with the extractors IndexSet gives them.
std::vector<std::unique_ptr<AuthenticatedLayeredIndex>> MakePinnedAlis(
    uint64_t cache_bytes) {
  LayeredIndexOptions discrete;
  discrete.discrete = true;
  discrete.materialized_cache_bytes = cache_bytes;
  LayeredIndexOptions continuous;
  continuous.histogram_buckets = 16;
  continuous.materialized_cache_bytes = cache_bytes;
  std::vector<std::unique_ptr<AuthenticatedLayeredIndex>> alis;
  alis.push_back(std::make_unique<AuthenticatedLayeredIndex>(
      "sys.senid.auth", discrete, [](const Transaction& txn, Value* out) {
        *out = Value::Str(txn.sender());
        return true;
      }));
  alis.push_back(std::make_unique<AuthenticatedLayeredIndex>(
      "sys.tname.auth", discrete, [](const Transaction& txn, Value* out) {
        *out = Value::Str(txn.tname());
        return true;
      }));
  alis.push_back(std::make_unique<AuthenticatedLayeredIndex>(
      "donate.amount.auth", continuous, AmountExtractor()));
  return alis;
}

Status TxnSenderKeyFn(const Slice& record, Value* key) {
  Transaction txn;
  Slice input = record;
  Status s = Transaction::DecodeFrom(&input, &txn);
  if (s.ok()) *key = Value::Str(txn.sender());
  return s;
}

Status TxnTnameKeyFn(const Slice& record, Value* key) {
  Transaction txn;
  Slice input = record;
  Status s = Transaction::DecodeFrom(&input, &txn);
  if (s.ok()) *key = Value::Str(txn.tname());
  return s;
}

class PinnedProofTest : public ::testing::Test {
 protected:
  void SetUp() override {
    blocks_ = PinnedChain();
    fresh_ = MakePinnedAlis(LayeredIndexOptions().materialized_cache_bytes);
    BufferPoolOptions pool_options;
    pool_options.capacity_bytes = 1 << 20;
    pool_ = std::make_unique<BufferManager>(pool_options);
    for (size_t a = 0; a < fresh_.size(); a++) {
      fresh_[a]->SetBlockLoader(LoaderOver(&blocks_));
      for (int b = 0; b < kPinnedBlocks; b++) {
        if (b == kPinnedCheckpoint) {
          BufferManager::FileId file;
          ASSERT_TRUE(pool_
                          ->CreateFile(dir_.path() + "/ali" + std::to_string(a),
                                       &file)
                          .ok());
          std::vector<LayeredIndex::FrozenTreeRef> refs;
          ASSERT_TRUE(
              fresh_[a]->WriteFrozenDelta(pool_.get(), file, b, &refs).ok());
          ASSERT_TRUE(pool_->Flush(file).ok());
          std::string state;
          fresh_[a]->EncodeCheckpointState(refs, &state);
          files_.push_back(file);
          states_.push_back(std::move(state));
        }
        ASSERT_TRUE(fresh_[a]->AddBlock(*blocks_[b]).ok());
      }
    }
  }

  /// A checkpoint-restored copy of the pinned ALIs: blocks below the
  /// checkpoint rebuild from raw blocks, the rest are re-added as tail.
  std::vector<std::unique_ptr<AuthenticatedLayeredIndex>> Restored(
      uint64_t cache_bytes, bool records = false) {
    auto alis = MakePinnedAlis(cache_bytes);
    for (size_t a = 0; a < alis.size(); a++) {
      alis[a]->SetBlockLoader(records ? RecordLoaderOver(&blocks_)
                                      : LoaderOver(&blocks_));
      EXPECT_TRUE(
          alis[a]->RestoreCheckpoint(pool_.get(), {files_[a]}, states_[a]).ok());
      for (int b = kPinnedCheckpoint; b < kPinnedBlocks; b++) {
        EXPECT_TRUE(alis[a]->AddBlock(*blocks_[b]).ok());
      }
    }
    return alis;
  }

  static std::optional<Value> Key(PinnedAli ali, const char* text) {
    if (text == nullptr) return std::nullopt;
    return ali == kAmount ? Value::Int(std::stoll(text)) : Value::Str(text);
  }

  /// Runs one row: (SHA-256 of the encoded response, SHA-256 of the digest).
  static std::pair<std::string, std::string> Run(
      const AuthenticatedLayeredIndex& ali, const PinnedProve& row) {
    const std::optional<Value> lo = Key(row.ali, row.lo);
    const std::optional<Value> hi = Key(row.ali, row.hi);
    std::optional<Bitmap> window;
    if (row.window_end > 0) {
      window.emplace(kPinnedBlocks);
      for (BlockId b = row.window_begin; b < row.window_end; b++) window->Set(b);
    }
    const Value* plo = lo.has_value() ? &*lo : nullptr;
    const Value* phi = hi.has_value() ? &*hi : nullptr;
    const Bitmap* pwin = window.has_value() ? &*window : nullptr;
    AuthQueryResponse response;
    Status s = ali.ProveRange(plo, phi, pwin, kPinnedBlocks, &response);
    EXPECT_TRUE(s.ok()) << row.name << ": " << s.ToString();
    Hash256 digest;
    s = ali.ComputeDigest(plo, phi, pwin, kPinnedBlocks, &digest);
    EXPECT_TRUE(s.ok()) << row.name << ": " << s.ToString();

    // The response must also verify, so a pinned row is a real proof.
    const RecordKeyFn key_fns[] = {TxnSenderKeyFn, TxnTnameKeyFn,
                                   TxnAmountKeyFn};
    std::vector<std::string> records;
    s = AuthenticatedLayeredIndex::VerifyResponse(
        response, plo, phi, key_fns[row.ali], {digest}, 1, &records);
    EXPECT_TRUE(s.ok()) << row.name << ": " << s.ToString();

    std::string encoded;
    response.EncodeTo(&encoded);
    return {Sha256::Digest(encoded).ToHex(),
            Sha256::Digest(Slice(reinterpret_cast<const char*>(
                                     digest.bytes.data()),
                                 32))
                .ToHex()};
  }

  /// `row` as a kPinnedProves line carrying the given hashes.
  static std::string TableLine(const PinnedProve& row,
                               const std::string& response,
                               const std::string& digest) {
    auto text = [](const char* key) {
      return key == nullptr ? std::string("nullptr")
                            : "\"" + std::string(key) + "\"";
    };
    const char* ali_names[] = {"kSenid", "kTname", "kAmount"};
    return "    {\"" + std::string(row.name) + "\", " + ali_names[row.ali] +
           ", " + text(row.lo) + ", " + text(row.hi) + ", " +
           std::to_string(row.window_begin) + ", " +
           std::to_string(row.window_end) + ",\n     \"" + response +
           "\",\n     \"" + digest + "\"},\n";
  }

  /// Checks every pinned row against `alis`, `passes` times each.
  void ExpectPinned(
      const std::vector<std::unique_ptr<AuthenticatedLayeredIndex>>& alis,
      const std::string& state, int passes) {
    std::string table;  // the table as this state computes it
    for (const PinnedProve& row : kPinnedProves) {
      for (int pass = 0; pass < passes; pass++) {
        const auto [response, digest] = Run(*alis[row.ali], row);
        EXPECT_EQ(response, row.response_sha256)
            << state << " " << row.name << " pass " << pass;
        EXPECT_EQ(digest, row.digest_sha256)
            << state << " " << row.name << " pass " << pass;
        if (pass == 0) table += TableLine(row, response, digest);
      }
    }
    if (HasFailure()) ADD_FAILURE() << state << " computes:\n" << table;
  }

  ScratchDir dir_{"pinned_ali"};
  std::vector<std::shared_ptr<const Block>> blocks_;
  std::vector<std::unique_ptr<AuthenticatedLayeredIndex>> fresh_;
  std::unique_ptr<BufferManager> pool_;
  std::vector<BufferManager::FileId> files_;
  std::vector<std::string> states_;
};

TEST_F(PinnedProofTest, InMemoryTailTrees) {
  ExpectPinned(fresh_, "in-memory", 1);
}

TEST_F(PinnedProofTest, RestoredWithDefaultBudget) {
  ExpectPinned(Restored(LayeredIndexOptions().materialized_cache_bytes),
               "restored", 2);
}

TEST_F(PinnedProofTest, RestoredRebuildingEveryProve) {
  ExpectPinned(Restored(0), "restored with no LRU", 2);
}

// A live node's store rarely holds its recent blocks decoded: the proves
// then read each block as its raw record. Same rows, in-memory and restored.
TEST_F(PinnedProofTest, ProvesOverRawRecords) {
  for (auto& ali : fresh_) ali->SetBlockLoader(RecordLoaderOver(&blocks_));
  ExpectPinned(fresh_, "in-memory over records", 1);
  ExpectPinned(Restored(LayeredIndexOptions().materialized_cache_bytes,
                        /*records=*/true),
               "restored over records", 2);
}

// A raw record is read without its frame CRC, so the prove checks every
// record it serves against the tree: a flipped byte is Corruption at the
// server, not a VO the client rejects.
TEST_F(PinnedProofTest, CorruptRawRecordIsCorruption) {
  const AuthenticatedLayeredIndex& senid = *fresh_[kSenid];
  fresh_[kSenid]->SetBlockLoader([this](
                                     BlockId bid, bool whole,
                                     AuthenticatedLayeredIndex::RawBlock* out) {
        if (whole) return Status::InvalidArgument("tail trees never rebuild");
        blocks_[bid]->EncodeTo(&out->record);
        out->record.back() ^= 0x01;  // inside the block's last txn
        return Status::OK();
      });
  AuthQueryResponse response;
  Status s = senid.ProveRange(nullptr, nullptr, nullptr, kPinnedBlocks,
                              &response);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("does not match its MB-tree leaf"),
            std::string::npos)
      << s.ToString();
}

// The rebuild LRU is charged what a tree really holds: MbTree::ByteSize,
// which covers the tree's object, positions, record hashes and node hashes,
// and stays within 48 B per entry once a block's fixed cost is spread over
// a few dozen entries (a 200-txn block: under 40 B).
TEST_F(PinnedProofTest, RebuildChargeIsTheBytesTreesHold) {
  auto alis = Restored(LayeredIndexOptions().materialized_cache_bytes);
  for (const auto& ali : alis) {
    uint64_t charged = 0;
    size_t large = 0;
    for (BlockId bid = 0; bid < kPinnedCheckpoint; bid++) {
      std::shared_ptr<const MbTree> tree;
      ASSERT_TRUE(ali->Tree(bid, &tree).ok());
      if (tree == nullptr) continue;
      const size_t n = tree->size();
      const size_t leaves = (n + MbTree::Options().fanout - 1) /
                            MbTree::Options().fanout;
      EXPECT_GE(tree->ByteSize(), sizeof(MbTree) +
                                      n * (sizeof(uint32_t) + sizeof(Hash256)) +
                                      leaves * sizeof(Hash256));
      if (n >= 32) {
        EXPECT_LE(tree->ByteSize(), 48 * n) << ali->name() << " block " << bid;
        large++;
      }
      charged += tree->ByteSize();
    }
    EXPECT_EQ(ali->rebuild_cache_stats().usage, charged) << ali->name();
    if (ali->name() == "sys.senid.auth") {
      EXPECT_GT(large, 0u);
    }
  }
  for (int n : {200, 1000}) {
    std::vector<int64_t> keys(n);
    for (int i = 0; i < n; i++) keys[i] = i;
    auto tree = MbTree::Build(MakeRecords(keys).Entries());
    EXPECT_LE(tree->ByteSize(), (n == 200 ? 40u : 48u) * n) << n;
  }
}

// ---- caches of a restored node under concurrency ----
//
// A node restored from a checkpoint has no in-memory trees: the layered
// index's materialized-tree LRU and the ALI's rebuild LRU serve its frozen
// blocks. Here its first query is a layered-merge join fanned out on four
// workers, and then four threads prove on one ALI at once, so both caches
// are first reached from several threads together (the tsan preset runs
// this test).
TEST(RestoredNodeConcurrencyTest, FirstJoinAndConcurrentProves) {
  ScratchDir dir("restored_concurrency");
  ChainOptions options;
  options.verify_signatures = false;
  options.checkpoint.interval_blocks = 8;
  options.checkpoint.checkpoint_on_close = true;
  {
    ChainManager chain("writer", nullptr);
    ASSERT_TRUE(chain.Open(options, dir.path()).ok());
    Schema donate, transfer;
    ASSERT_TRUE(Schema::Create("donate",
                               {{"project", ValueType::kString},
                                {"amount", ValueType::kInt64}},
                               &donate)
                    .ok());
    ASSERT_TRUE(Schema::Create("transfer",
                               {{"project", ValueType::kString},
                                {"amount", ValueType::kInt64}},
                               &transfer)
                    .ok());
    Timestamp ts = 10;
    std::vector<Transaction> schema_txns;
    for (const Schema* schema : {&donate, &transfer}) {
      Transaction txn = Catalog::MakeSchemaTransaction(*schema);
      txn.set_sender("admin");
      txn.set_ts(ts);
      schema_txns.push_back(std::move(txn));
    }
    uint64_t seq = 0;
    ASSERT_TRUE(chain.AppendBatch(seq++, std::move(schema_txns), ts, "sig").ok());
    Executor ddl(chain.store(), chain.indexes(), chain.catalog(), nullptr);
    ResultSet rs;
    ASSERT_TRUE(
        ddl.ExecuteSql("CREATE INDEX ON donate(project)", {}, &rs).ok());
    ASSERT_TRUE(
        ddl.ExecuteSql("CREATE INDEX ON transfer(project)", {}, &rs).ok());
    Random rng(77);
    for (int b = 0; b < 40; b++) {
      std::vector<Transaction> txns;
      ts += 10;
      for (int i = 0; i < 12; i++) {
        txns.push_back(MakeTxn(
            rng.Uniform(2) == 0 ? "donate" : "transfer",
            "org" + std::to_string(rng.Uniform(4)), ts,
            {Value::Str("p" + std::to_string(rng.Uniform(6))),
             Value::Int(rng.UniformRange(0, 500))}));
      }
      ASSERT_TRUE(chain.AppendBatch(seq++, std::move(txns), ts, "sig").ok());
    }
    chain.Close();
  }

  ChainManager chain("reader", nullptr);
  ASSERT_TRUE(chain.Open(options, dir.path()).ok());
  ASSERT_TRUE(chain.startup_stats().from_checkpoint);
  ASSERT_EQ(chain.startup_stats().replayed_blocks, 0u);

  ThreadPool pool(4);
  Executor executor(chain.store(), chain.indexes(), chain.catalog(), nullptr,
                    &pool);
  ExecOptions merge;
  merge.join_strategy = JoinStrategy::kLayeredMerge;
  const std::string join =
      "SELECT * FROM donate, transfer ON donate.project = transfer.project";
  ResultSet parallel, serial;
  ASSERT_TRUE(executor.ExecuteSql(join, merge, &parallel).ok());
  executor.set_pool(nullptr);
  ASSERT_TRUE(executor.ExecuteSql(join, merge, &serial).ok());
  EXPECT_FALSE(parallel.rows.empty());
  EXPECT_EQ(parallel.rows.size(), serial.rows.size());

  const AuthenticatedLayeredIndex* ali = chain.indexes()->senid_ali();
  const uint64_t height = chain.height();
  std::vector<Status> results(4);
  std::vector<std::thread> provers;
  for (int t = 0; t < 4; t++) {
    provers.emplace_back([&, t] {
      const Value key = Value::Str("org" + std::to_string(t));
      AuthQueryResponse response;
      Hash256 digest;
      std::vector<std::string> records;
      Status s = ali->ProveRange(&key, &key, nullptr, height, &response);
      if (s.ok()) s = ali->ComputeDigest(&key, &key, nullptr, height, &digest);
      if (s.ok()) {
        s = AuthenticatedLayeredIndex::VerifyResponse(
            response, &key, &key, TxnSenderKeyFn, {digest}, 1, &records);
      }
      if (s.ok() && records.empty()) s = Status::NotFound("no records");
      results[t] = s;
    });
  }
  for (auto& prover : provers) prover.join();
  for (const Status& s : results) EXPECT_TRUE(s.ok()) << s.ToString();
  chain.Close();
}

// ---- credibility (Eqs. 4-6) ----

TEST(CredibilityTest, ZeroWhenMatchingExceedsByzantineBound) {
  CredibilityParams params{0.25, 4, 2, 1};  // m=2 > max=1
  EXPECT_EQ(DigestWrongProbability(params), 0.0);
}

TEST(CredibilityTest, MonotoneInM) {
  double prev = 1.0;
  for (int m = 1; m <= 5; m++) {
    CredibilityParams params{0.2, 10, m, 10};
    double theta = DigestWrongProbability(params);
    EXPECT_LE(theta, prev + 1e-12) << m;
    prev = theta;
  }
}

TEST(CredibilityTest, HalfByzantineGivesHalf) {
  // p = 0.5: wrong and right digests are symmetric.
  CredibilityParams params{0.5, 10, 3, 10};
  EXPECT_NEAR(DigestWrongProbability(params), 0.5, 1e-9);
}

TEST(CredibilityTest, SmallPGivesSmallTheta) {
  CredibilityParams params{0.1, 10, 3, 10};
  double theta = DigestWrongProbability(params);
  EXPECT_LT(theta, 0.02);
  EXPECT_GT(theta, 0.0);
}

TEST(CredibilityTest, MinMatchingForTarget) {
  int m = MinMatchingForCredibility(0.2, 10, 10, 0.01);
  ASSERT_GT(m, 0);
  CredibilityParams params{0.2, 10, m, 10};
  EXPECT_LE(DigestWrongProbability(params), 0.01);
  if (m > 1) {
    CredibilityParams weaker{0.2, 10, m - 1, 10};
    EXPECT_GT(DigestWrongProbability(weaker), 0.01);
  }
  // With a single auxiliary node, a near-half Byzantine fraction and a
  // Byzantine bound that never rules digests out, no m can reach 1e-9.
  EXPECT_EQ(MinMatchingForCredibility(0.49, 1, 10, 1e-9), -1);
}

TEST(CredibilityTest, InvalidMGivesOne) {
  EXPECT_EQ(DigestWrongProbability({0.2, 4, 0, 4}), 1.0);
  EXPECT_EQ(DigestWrongProbability({0.2, 4, 5, 4}), 1.0);
}

}  // namespace
}  // namespace sebdb
