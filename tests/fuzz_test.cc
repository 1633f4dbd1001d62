// Randomized property tests: on randomly generated chains, every access
// path / join strategy must return exactly the same result multiset, and it
// must match a naive reference evaluation computed directly from the data.
// The MB-tree is additionally fuzzed with random ranges and random VO
// mutations (every mutation must be rejected or yield identical results).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "auth/mbtree.h"
#include "common/random.h"
#include "sql/executor.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::TestChain;

struct FuzzData {
  std::unique_ptr<TestChain> chain;
  std::unique_ptr<Executor> executor;
  // Ground truth: every donate (sender, amount) and per-table rows.
  std::vector<std::pair<std::string, int64_t>> donate_rows;
};

FuzzData BuildRandomChain(uint64_t seed, int num_blocks) {
  FuzzData data;
  data.chain = std::make_unique<TestChain>("fuzz");
  Schema donate;
  EXPECT_TRUE(Schema::Create("donate",
                             {{"donor", ValueType::kString},
                              {"amount", ValueType::kInt64}},
                             &donate)
                  .ok());
  Transaction schema_txn = Catalog::MakeSchemaTransaction(donate);
  schema_txn.set_sender("admin");
  schema_txn.set_ts(1);
  EXPECT_TRUE(data.chain->AppendBlock({std::move(schema_txn)}).ok());

  Random rng(seed);
  Timestamp ts = 100;
  for (int b = 0; b < num_blocks; b++) {
    std::vector<Transaction> txns;
    int count = 1 + static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < count; i++) {
      ts += 1 + rng.Uniform(5);
      if (rng.Uniform(4) == 0) {
        // Noise from another table.
        txns.push_back(MakeTxn("other", "n" + std::to_string(rng.Uniform(5)),
                               ts, {Value::Int(1)}));
        continue;
      }
      std::string sender = "org" + std::to_string(rng.Uniform(6));
      int64_t amount = static_cast<int64_t>(rng.Uniform(1000));
      data.donate_rows.emplace_back(sender, amount);
      txns.push_back(MakeTxn("donate", sender, ts,
                             {Value::Str("d" + std::to_string(amount % 10)),
                              Value::Int(amount)}));
    }
    EXPECT_TRUE(data.chain->AppendBlock(std::move(txns)).ok());
  }
  data.executor = std::make_unique<Executor>(
      data.chain->store(), data.chain->indexes(), data.chain->catalog(),
      nullptr);
  ResultSet rs;
  EXPECT_TRUE(
      data.executor->ExecuteSql("CREATE INDEX ON donate(amount)", {}, &rs)
          .ok());
  return data;
}

std::multiset<std::string> Rendered(const ResultSet& result) {
  std::multiset<std::string> out;
  for (const auto& row : result.rows) {
    std::string line;
    for (const auto& v : row) line += v.ToString() + "|";
    out.insert(std::move(line));
  }
  return out;
}

class RangeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeFuzzTest, AllPathsMatchReference) {
  uint64_t seed = GetParam();
  FuzzData data = BuildRandomChain(seed, 25);
  Random rng(seed * 31 + 7);

  for (int q = 0; q < 25; q++) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(1000));
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(300));
    std::string sql = "SELECT senid, amount FROM donate WHERE amount BETWEEN " +
                      std::to_string(lo) + " AND " + std::to_string(hi);

    size_t expected = 0;
    for (const auto& [sender, amount] : data.donate_rows) {
      if (amount >= lo && amount <= hi) expected++;
    }

    std::multiset<std::string> reference;
    for (AccessPath path : {AccessPath::kScan, AccessPath::kBitmap,
                            AccessPath::kLayered, AccessPath::kAuto}) {
      ExecOptions options;
      options.access_path = path;
      ResultSet result;
      ASSERT_TRUE(data.executor->ExecuteSql(sql, options, &result).ok())
          << sql;
      ASSERT_EQ(result.num_rows(), expected)
          << sql << " path=" << static_cast<int>(path);
      auto rendered = Rendered(result);
      if (path == AccessPath::kScan) reference = std::move(rendered);
      else ASSERT_EQ(rendered, reference) << sql;
    }
  }
}

TEST_P(RangeFuzzTest, TracePathsMatchReference) {
  uint64_t seed = GetParam();
  FuzzData data = BuildRandomChain(seed, 20);

  for (int org = 0; org < 6; org++) {
    std::string sender = "org" + std::to_string(org);
    size_t expected = 0;
    for (const auto& [s, amount] : data.donate_rows) {
      if (s == sender) expected++;
    }
    std::string sql = "TRACE OPERATOR = '" + sender + "'";
    std::multiset<std::string> reference;
    for (AccessPath path :
         {AccessPath::kScan, AccessPath::kBitmap, AccessPath::kLayered}) {
      ExecOptions options;
      options.access_path = path;
      ResultSet result;
      ASSERT_TRUE(data.executor->ExecuteSql(sql, options, &result).ok());
      ASSERT_EQ(result.num_rows(), expected) << sender;
      auto rendered = Rendered(result);
      if (path == AccessPath::kScan) reference = std::move(rendered);
      else ASSERT_EQ(rendered, reference);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- MB-tree fuzz ----

/// `n` random keys in [0, 200), sorted; record i is "rec:<key>:<i>".
SortedRecordSource RandomRecords(Random* rng, int n, std::vector<int64_t>* keys) {
  std::vector<std::pair<int64_t, int>> drawn;
  for (int i = 0; i < n; i++) {
    drawn.emplace_back(static_cast<int64_t>(rng->Uniform(200)), i);
  }
  std::stable_sort(drawn.begin(), drawn.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  SortedRecordSource records;
  for (const auto& [key, i] : drawn) {
    records.Add(Value::Int(key),
                "rec:" + std::to_string(key) + ":" + std::to_string(i));
    keys->push_back(key);
  }
  return records;
}

Status FuzzKeyFn(const Slice& record, Value* key) {
  // Tolerant of corrupted records (a mutated full record must yield an
  // error, not a crash — production clients decode a Transaction, which
  // also fails gracefully).
  std::string text = record.ToString();
  size_t first = text.find(':');
  size_t second = first == std::string::npos ? std::string::npos
                                             : text.find(':', first + 1);
  if (first == std::string::npos || second == std::string::npos) {
    return Status::Corruption("malformed fuzz record");
  }
  std::string digits = text.substr(first + 1, second - first - 1);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return Status::Corruption("malformed fuzz key");
  }
  *key = Value::Int(std::stoll(digits));
  return Status::OK();
}

class MbTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MbTreeFuzzTest, RandomRangesAlwaysVerifyExactly) {
  Random rng(GetParam());
  std::vector<int64_t> keys;
  const SortedRecordSource source =
      RandomRecords(&rng, 1 + static_cast<int>(rng.Uniform(400)), &keys);
  MbTree::Options options;
  options.fanout = 2 + rng.Uniform(20);
  auto tree = MbTree::Build(source.Entries(), options);

  for (int q = 0; q < 40; q++) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(220)) - 10;
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(80));
    Value vlo = Value::Int(lo), vhi = Value::Int(hi);
    VerificationObject vo;
    ASSERT_TRUE(tree->ProveRange(source, &vlo, &vhi, &vo).ok());
    std::vector<std::string> records;
    ASSERT_TRUE(MbTree::VerifyRange(tree->root_hash(), vo, &vlo, &vhi,
                                    FuzzKeyFn, &records)
                    .ok())
        << "range [" << lo << "," << hi << "] fanout " << options.fanout;
    size_t expected = 0;
    for (int64_t k : keys) {
      if (k >= lo && k <= hi) expected++;
    }
    EXPECT_EQ(records.size(), expected);
  }
}

TEST_P(MbTreeFuzzTest, RandomMutationsNeverForgeResults) {
  Random rng(GetParam() * 101 + 13);
  std::vector<int64_t> keys;
  const SortedRecordSource source = RandomRecords(&rng, 200, &keys);
  auto tree = MbTree::Build(source.Entries());

  int rejected = 0, unchanged = 0;
  for (int trial = 0; trial < 60; trial++) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(200));
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(50));
    Value vlo = Value::Int(lo), vhi = Value::Int(hi);
    VerificationObject vo;
    ASSERT_TRUE(tree->ProveRange(source, &vlo, &vhi, &vo).ok());

    // Random single-byte mutation of the serialized VO.
    std::string encoded;
    vo.EncodeTo(&encoded);
    if (encoded.empty()) continue;
    size_t pos = rng.Uniform(encoded.size());
    encoded[pos] = static_cast<char>(encoded[pos] ^ (1 + rng.Uniform(255)));

    Slice input(encoded);
    VerificationObject mutated;
    if (!VerificationObject::DecodeFrom(&input, &mutated).ok() ||
        !input.empty()) {
      rejected++;  // structurally invalid
      continue;
    }
    std::vector<std::string> records;
    Status s = MbTree::VerifyRange(tree->root_hash(), mutated, &vlo, &vhi,
                                   FuzzKeyFn, &records);
    if (!s.ok()) {
      rejected++;
      continue;
    }
    // Verification passed: the mutation must not have changed the result.
    size_t expected = 0;
    for (int64_t k : keys) {
      if (k >= lo && k <= hi) expected++;
    }
    ASSERT_EQ(records.size(), expected)
        << "mutation at byte " << pos << " forged a result set";
    unchanged++;
  }
  EXPECT_GT(rejected, 0);  // most random mutations must be caught
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbTreeFuzzTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace sebdb
