// Thread-pool unit tests plus serial/parallel equivalence: the same
// workload must produce byte-identical results with no pool, a 1-thread
// pool, and a 4-thread pool — for query execution (scan, trace, joins) and
// for startup replay (tip hash, height, ALI digests).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/sha256.h"
#include "common/thread_pool.h"
#include "offchain/offchain_db.h"
#include "sql/executor.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::ScratchDir;
using testing_util::TestChain;

TEST(ThreadPoolTest, ParallelForCoversEveryIndex) {
  ThreadPool pool(4);
  constexpr uint64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](uint64_t i) { hits[i].fetch_add(1); });
  for (uint64_t i = 0; i < kN; i++) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForWithGrain) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(1000, [&](uint64_t i) { sum.fetch_add(i); }, /*grain=*/64);
  EXPECT_EQ(sum.load(), 1000ull * 999 / 2);
}

TEST(ThreadPoolTest, SubmitRunsEverything) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  Latch done(100);
  for (int i = 0; i < 100; i++) {
    pool.Submit([&] {
      count.fetch_add(1);
      done.CountDown();
    });
  }
  done.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](uint64_t) {
    // Caller participation makes the inner loop safe even when every worker
    // is already occupied by the outer one.
    pool.ParallelFor(8, [&](uint64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ParallelForStatusSerialWhenNoPool) {
  std::vector<int> touched(10, 0);
  Status s = ParallelForStatus(nullptr, 10, [&](uint64_t i) -> Status {
    touched[i] = 1;
    if (i == 6) return Status::Corruption("boom");
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("boom"), std::string::npos);
  // Serial early exit: nothing past the failure runs.
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 7);
}

TEST(ThreadPoolTest, ParallelForStatusReportsSmallestFailingIndex) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; round++) {
    Status s = ParallelForStatus(&pool, 200, [&](uint64_t i) -> Status {
      if (i % 50 == 3) {  // fails at 3, 53, 103, 153
        return Status::Corruption("fail@" + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(s.ok());
    // Must be the status a serial loop would return: the smallest index.
    EXPECT_NE(s.ToString().find("fail@3"), std::string::npos) << s.ToString();
  }
}

TEST(ThreadPoolTest, DefaultPoolIsShared) {
  ThreadPool* a = ThreadPool::Default();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, ThreadPool::Default());
  EXPECT_GE(a->num_threads(), 1);
}

// ---------------------------------------------------------------------------
// Serial/parallel query equivalence on a randomized multi-segment chain.

class ParallelEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ChainOptions options;
    options.store.segment_size = 8 << 10;  // tiny: forces many segments
    chain_ = std::make_unique<TestChain>("parallel_eq", options);

    Schema donate, transfer;
    ASSERT_TRUE(Schema::Create("donate",
                               {{"donor", ValueType::kString},
                                {"project", ValueType::kString},
                                {"amount", ValueType::kInt64}},
                               &donate)
                    .ok());
    ASSERT_TRUE(Schema::Create("transfer",
                               {{"project", ValueType::kString},
                                {"organization", ValueType::kString},
                                {"amount", ValueType::kInt64}},
                               &transfer)
                    .ok());
    std::vector<Transaction> schema_txns;
    for (const Schema* schema : {&donate, &transfer}) {
      Transaction txn = Catalog::MakeSchemaTransaction(*schema);
      txn.set_sender("admin");
      txn.set_ts(NextTs());
      schema_txns.push_back(std::move(txn));
    }
    ASSERT_TRUE(chain_->AppendBlock(std::move(schema_txns)).ok());

    // Randomized data: 40 blocks, mixed tables, skewed senders/amounts.
    Random rng(20260807);
    for (int b = 0; b < 40; b++) {
      std::vector<Transaction> txns;
      int rows = 3 + static_cast<int>(rng.Uniform(8));
      for (int i = 0; i < rows; i++) {
        if (rng.Uniform(3) == 0) {
          txns.push_back(MakeTxn(
              "transfer", "org" + std::to_string(rng.Uniform(4)), NextTs(),
              {Value::Str("proj" + std::to_string(rng.Uniform(5))),
               Value::Str("school" + std::to_string(rng.Uniform(3))),
               Value::Int(rng.UniformRange(0, 500))}));
        } else {
          txns.push_back(MakeTxn(
              "donate", "donor" + std::to_string(rng.Uniform(6)), NextTs(),
              {Value::Str("d" + std::to_string(rng.Uniform(6))),
               Value::Str("proj" + std::to_string(rng.Uniform(5))),
               Value::Int(rng.UniformRange(0, 500))}));
        }
      }
      ASSERT_TRUE(chain_->AppendBlock(std::move(txns)).ok());
    }

    ASSERT_TRUE(offchain_
                    .CreateTable("projectinfo",
                                 {{"project", ValueType::kString},
                                  {"budget", ValueType::kInt64}})
                    .ok());
    for (int p = 0; p < 5; p++) {
      ASSERT_TRUE(offchain_
                      .Insert("projectinfo",
                              {Value::Str("proj" + std::to_string(p)),
                               Value::Int(100 * p)})
                      .ok());
    }
    connector_ = std::make_unique<LocalOffchainConnector>(&offchain_);
    executor_ = std::make_unique<Executor>(chain_->store(), chain_->indexes(),
                                           chain_->catalog(),
                                           connector_.get());
    ExecOptions ddl;
    ResultSet rs;
    ASSERT_TRUE(
        executor_->ExecuteSql("CREATE INDEX ON donate(amount)", ddl, &rs).ok());
    ASSERT_TRUE(
        executor_->ExecuteSql("CREATE INDEX ON transfer(amount)", ddl, &rs)
            .ok());
    ASSERT_TRUE(
        executor_->ExecuteSql("CREATE INDEX ON donate(project)", ddl, &rs)
            .ok());
    ASSERT_TRUE(
        executor_->ExecuteSql("CREATE INDEX ON transfer(project)", ddl, &rs)
            .ok());
  }

  Timestamp NextTs() { return ts_ += 10; }

  // In-order rendering: equivalence means identical rows in identical order.
  static std::vector<std::string> Rendered(const ResultSet& result) {
    std::vector<std::string> out;
    for (const auto& row : result.rows) {
      std::string line;
      for (const auto& v : row) line += v.ToString() + "|";
      out.push_back(std::move(line));
    }
    return out;
  }

  Timestamp ts_ = 0;
  std::unique_ptr<TestChain> chain_;
  OffchainDb offchain_;
  std::unique_ptr<LocalOffchainConnector> connector_;
  std::unique_ptr<Executor> executor_;
};

// Every (query, access path or join strategy) pair the equivalence test
// runs, with its EXPLAIN plan and the SHA-256 of its rows rendered in output
// order (not sorted). A mismatch is a change of plan text or of row order,
// which users see; make it only on purpose. The test prints the table line
// of any pair missing here.
struct PinnedQuery {
  const char* sql;
  AccessPath path;
  JoinStrategy join;
  const char* plan;
  const char* rows_sha256;
};

const std::vector<PinnedQuery> kPinnedQueries = {
    {"SELECT * FROM donate WHERE amount BETWEEN 100 AND 320",
     AccessPath::kScan, JoinStrategy::kAuto,
     "SingleTable(donate) path=scan filter=(amount BETWEEN 100 AND 320) "
     "cost{scan=522, bitmap=497, layered=887, est_rows=75}",
     "b480f4b54ada0249da71a05cb65ca2b6485937aa138538f4c25f99c894908a1f"},
    {"SELECT * FROM donate WHERE amount BETWEEN 100 AND 320 WINDOW [600, "
     "1800]",
     AccessPath::kScan, JoinStrategy::kAuto,
     "SingleTable(donate) path=scan window filter=(amount BETWEEN 100 AND "
     "320) cost{scan=522, bitmap=497, layered=887, est_rows=75}",
     "e6a3d6033e77c9f8cd3bdfa1437ce447ab49279fa5e221baf320d3ad39956c6f"},
    {"SELECT count(*), sum(amount) FROM donate WHERE amount BETWEEN 50 AND "
     "400 GROUP BY project ORDER BY project DESC LIMIT 3",
     AccessPath::kScan, JoinStrategy::kAuto,
     "SingleTable(donate) path=scan filter=(amount BETWEEN 50 AND 400) "
     "cost{scan=522, bitmap=497, layered=1337, est_rows=113}",
     "f09fbdf347cee06bcdf604e4b1199e8e05d07184f0442cd0e9b74a136d2f6569"},
    {"TRACE OPERATOR = 'donor2'",
     AccessPath::kScan, JoinStrategy::kAuto,
     "Trace path=scan operator=donor2",
     "8106b699c2fae01104c77fa6016e34907fb228825a9fcbe8efbd6c57bc502eda"},
    {"TRACE [600, 1800] OPERATOR = 'donor2'",
     AccessPath::kScan, JoinStrategy::kAuto,
     "Trace path=scan operator=donor2 window",
     "3bc22a1357c45206641cfea627ca0e991bc92f84969780177a0e9b127d5227c2"},
    {"TRACE OPERATION = 'transfer'",
     AccessPath::kScan, JoinStrategy::kAuto,
     "Trace path=scan operation=transfer",
     "b48f0e1fff8f9962bb168048914f7fdbbe3768e6051c2c40ccd2afdf3f7f1ece"},
    {"TRACE OPERATOR = 'donor1', OPERATION = 'donate'",
     AccessPath::kScan, JoinStrategy::kAuto,
     "Trace path=scan operator=donor1 operation=donate",
     "48e8da63ba068523b13991c136f3901661b160829dab987cc65927165b43ba2b"},
    {"SELECT * FROM donate WHERE amount BETWEEN 100 AND 320",
     AccessPath::kBitmap, JoinStrategy::kAuto,
     "SingleTable(donate) path=bitmap filter=(amount BETWEEN 100 AND 320) "
     "cost{scan=522, bitmap=497, layered=887, est_rows=75}",
     "b480f4b54ada0249da71a05cb65ca2b6485937aa138538f4c25f99c894908a1f"},
    {"SELECT * FROM donate WHERE amount BETWEEN 100 AND 320 WINDOW [600, "
     "1800]",
     AccessPath::kBitmap, JoinStrategy::kAuto,
     "SingleTable(donate) path=bitmap window filter=(amount BETWEEN 100 AND "
     "320) cost{scan=522, bitmap=497, layered=887, est_rows=75}",
     "e6a3d6033e77c9f8cd3bdfa1437ce447ab49279fa5e221baf320d3ad39956c6f"},
    {"SELECT count(*), sum(amount) FROM donate WHERE amount BETWEEN 50 AND "
     "400 GROUP BY project ORDER BY project DESC LIMIT 3",
     AccessPath::kBitmap, JoinStrategy::kAuto,
     "SingleTable(donate) path=bitmap filter=(amount BETWEEN 50 AND 400) "
     "cost{scan=522, bitmap=497, layered=1337, est_rows=113}",
     "f09fbdf347cee06bcdf604e4b1199e8e05d07184f0442cd0e9b74a136d2f6569"},
    {"TRACE OPERATOR = 'donor2'",
     AccessPath::kBitmap, JoinStrategy::kAuto,
     "Trace path=bitmap operator=donor2",
     "8106b699c2fae01104c77fa6016e34907fb228825a9fcbe8efbd6c57bc502eda"},
    {"TRACE [600, 1800] OPERATOR = 'donor2'",
     AccessPath::kBitmap, JoinStrategy::kAuto,
     "Trace path=bitmap operator=donor2 window",
     "3bc22a1357c45206641cfea627ca0e991bc92f84969780177a0e9b127d5227c2"},
    {"TRACE OPERATION = 'transfer'",
     AccessPath::kBitmap, JoinStrategy::kAuto,
     "Trace path=bitmap operation=transfer",
     "b48f0e1fff8f9962bb168048914f7fdbbe3768e6051c2c40ccd2afdf3f7f1ece"},
    {"TRACE OPERATOR = 'donor1', OPERATION = 'donate'",
     AccessPath::kBitmap, JoinStrategy::kAuto,
     "Trace path=bitmap operator=donor1 operation=donate",
     "48e8da63ba068523b13991c136f3901661b160829dab987cc65927165b43ba2b"},
    {"SELECT * FROM donate WHERE amount BETWEEN 100 AND 320",
     AccessPath::kLayered, JoinStrategy::kAuto,
     "SingleTable(donate) path=layered(amount in [100, 320]) filter=(amount "
     "BETWEEN 100 AND 320) cost{scan=522, bitmap=497, layered=887, "
     "est_rows=75}",
     "aff212e828aec3c1c46d03960157259a2884d9c0d8973fe4192e1eedf1c87127"},
    {"SELECT * FROM donate WHERE amount BETWEEN 100 AND 320 WINDOW [600, "
     "1800]",
     AccessPath::kLayered, JoinStrategy::kAuto,
     "SingleTable(donate) path=layered(amount in [100, 320]) window "
     "filter=(amount BETWEEN 100 AND 320) cost{scan=522, bitmap=497, "
     "layered=887, est_rows=75}",
     "1e27991fd59c5e6431953d7a3fa957e0fe8d1f1ff697359d7da9b7bed7e5cb68"},
    {"SELECT count(*), sum(amount) FROM donate WHERE amount BETWEEN 50 AND "
     "400 GROUP BY project ORDER BY project DESC LIMIT 3",
     AccessPath::kLayered, JoinStrategy::kAuto,
     "SingleTable(donate) path=layered(amount in [50, 400]) filter=(amount "
     "BETWEEN 50 AND 400) cost{scan=522, bitmap=497, layered=1337, "
     "est_rows=113}",
     "f09fbdf347cee06bcdf604e4b1199e8e05d07184f0442cd0e9b74a136d2f6569"},
    {"TRACE OPERATOR = 'donor2'",
     AccessPath::kLayered, JoinStrategy::kAuto,
     "Trace path=layered operator=donor2",
     "8106b699c2fae01104c77fa6016e34907fb228825a9fcbe8efbd6c57bc502eda"},
    {"TRACE [600, 1800] OPERATOR = 'donor2'",
     AccessPath::kLayered, JoinStrategy::kAuto,
     "Trace path=layered operator=donor2 window",
     "3bc22a1357c45206641cfea627ca0e991bc92f84969780177a0e9b127d5227c2"},
    {"TRACE OPERATION = 'transfer'",
     AccessPath::kLayered, JoinStrategy::kAuto,
     "Trace path=layered operation=transfer",
     "b48f0e1fff8f9962bb168048914f7fdbbe3768e6051c2c40ccd2afdf3f7f1ece"},
    {"TRACE OPERATOR = 'donor1', OPERATION = 'donate'",
     AccessPath::kLayered, JoinStrategy::kAuto,
     "Trace path=layered operator=donor1 operation=donate",
     "48e8da63ba068523b13991c136f3901661b160829dab987cc65927165b43ba2b"},
    {"SELECT * FROM donate, transfer ON donate.project = transfer.project "
     "WHERE donate.amount < 60",
     AccessPath::kAuto, JoinStrategy::kScanHash,
     "OnChainJoin(donate.project = transfer.project) strategy=scan-hash",
     "f339c72274146da4dfef94243c005b6d0227f78df64ecf9a138e6314b2a77ed0"},
    {"SELECT * FROM donate, transfer ON donate.project = transfer.project "
     "WHERE donate.amount < 60 WINDOW [600, 1800]",
     AccessPath::kAuto, JoinStrategy::kScanHash,
     "OnChainJoin(donate.project = transfer.project) strategy=scan-hash window",
     "bdc5afa76fe0394f5517b8e22d8eedd4d842836885578d0761c741f18b9ef24a"},
    {"SELECT * FROM donate, transfer ON donate.amount = transfer.amount",
     AccessPath::kAuto, JoinStrategy::kScanHash,
     "OnChainJoin(donate.amount = transfer.amount) strategy=scan-hash",
     "c3c934c8572989784fc1fe64e30cfa734a53f0e96f9e763f596f0646a2bcd9fc"},
    {"SELECT * FROM onchain.donate, offchain.projectinfo ON donate.project "
     "= projectinfo.project",
     AccessPath::kAuto, JoinStrategy::kScanHash,
     "OnOffJoin(onchain.donate.project = offchain.projectinfo.project) "
     "strategy=scan-hash",
     "5b6fc10f96e91ba3ab6be837b5984b33d2ca62e26f058a7ef7408d497efe5eec"},
    {"SELECT * FROM offchain.projectinfo, onchain.donate ON "
     "projectinfo.project = donate.project",
     AccessPath::kAuto, JoinStrategy::kScanHash,
     "OnOffJoin(onchain.donate.project = offchain.projectinfo.project) "
     "strategy=scan-hash",
     "ebc1aeb82e9d4a3fca4ef2929139197e4e832e621fa766c31bf2dd039861ff12"},
    {"SELECT * FROM donate, transfer ON donate.project = transfer.project "
     "WHERE donate.amount < 60",
     AccessPath::kAuto, JoinStrategy::kBitmapHash,
     "OnChainJoin(donate.project = transfer.project) strategy=bitmap-hash",
     "f339c72274146da4dfef94243c005b6d0227f78df64ecf9a138e6314b2a77ed0"},
    {"SELECT * FROM donate, transfer ON donate.project = transfer.project "
     "WHERE donate.amount < 60 WINDOW [600, 1800]",
     AccessPath::kAuto, JoinStrategy::kBitmapHash,
     "OnChainJoin(donate.project = transfer.project) strategy=bitmap-hash "
     "window",
     "bdc5afa76fe0394f5517b8e22d8eedd4d842836885578d0761c741f18b9ef24a"},
    {"SELECT * FROM donate, transfer ON donate.amount = transfer.amount",
     AccessPath::kAuto, JoinStrategy::kBitmapHash,
     "OnChainJoin(donate.amount = transfer.amount) strategy=bitmap-hash",
     "c3c934c8572989784fc1fe64e30cfa734a53f0e96f9e763f596f0646a2bcd9fc"},
    {"SELECT * FROM onchain.donate, offchain.projectinfo ON donate.project "
     "= projectinfo.project",
     AccessPath::kAuto, JoinStrategy::kBitmapHash,
     "OnOffJoin(onchain.donate.project = offchain.projectinfo.project) "
     "strategy=bitmap-hash",
     "5b6fc10f96e91ba3ab6be837b5984b33d2ca62e26f058a7ef7408d497efe5eec"},
    {"SELECT * FROM offchain.projectinfo, onchain.donate ON "
     "projectinfo.project = donate.project",
     AccessPath::kAuto, JoinStrategy::kBitmapHash,
     "OnOffJoin(onchain.donate.project = offchain.projectinfo.project) "
     "strategy=bitmap-hash",
     "ebc1aeb82e9d4a3fca4ef2929139197e4e832e621fa766c31bf2dd039861ff12"},
    {"SELECT * FROM donate, transfer ON donate.project = transfer.project "
     "WHERE donate.amount < 60",
     AccessPath::kAuto, JoinStrategy::kLayeredMerge,
     "OnChainJoin(donate.project = transfer.project) strategy=layered-merge",
     "bf031f7dbcd14066206fb16f587694715e9b859beb840e6fa45c5f13e74d1b18"},
    {"SELECT * FROM donate, transfer ON donate.project = transfer.project "
     "WHERE donate.amount < 60 WINDOW [600, 1800]",
     AccessPath::kAuto, JoinStrategy::kLayeredMerge,
     "OnChainJoin(donate.project = transfer.project) strategy=layered-merge "
     "window",
     "1fcfad7a13c1bb873541e1ad79fb58ab4568e3e7a88857d9bd35f6870e74bf38"},
    {"SELECT * FROM donate, transfer ON donate.amount = transfer.amount",
     AccessPath::kAuto, JoinStrategy::kLayeredMerge,
     "OnChainJoin(donate.amount = transfer.amount) strategy=layered-merge",
     "743aa11778133d1094e350abcbd1ff966b7585cb48b134fe8e15917bc9dd3ebc"},
    {"SELECT * FROM onchain.donate, offchain.projectinfo ON donate.project "
     "= projectinfo.project",
     AccessPath::kAuto, JoinStrategy::kLayeredMerge,
     "OnOffJoin(onchain.donate.project = offchain.projectinfo.project) "
     "strategy=layered-merge",
     "741431ebc32e582f2e7ec3762041931daa2c1e5f5417f9d54467e6b9457e3673"},
    {"SELECT * FROM offchain.projectinfo, onchain.donate ON "
     "projectinfo.project = donate.project",
     AccessPath::kAuto, JoinStrategy::kLayeredMerge,
     "OnOffJoin(onchain.donate.project = offchain.projectinfo.project) "
     "strategy=layered-merge",
     "e96cc22a01913522df2fc4838ec14a6c4ded2142657950f8248ba8e37885116c"},
};

std::string RowsDigest(const std::vector<std::string>& rendered) {
  std::string all;
  for (const auto& line : rendered) all += line + "\n";
  return Sha256::Digest(Slice(all)).ToHex();
}

const char* PathName(AccessPath path) {
  switch (path) {
    case AccessPath::kScan:
      return "AccessPath::kScan";
    case AccessPath::kBitmap:
      return "AccessPath::kBitmap";
    case AccessPath::kLayered:
      return "AccessPath::kLayered";
    default:
      return "AccessPath::kAuto";
  }
}

const char* JoinName(JoinStrategy join) {
  switch (join) {
    case JoinStrategy::kScanHash:
      return "JoinStrategy::kScanHash";
    case JoinStrategy::kBitmapHash:
      return "JoinStrategy::kBitmapHash";
    case JoinStrategy::kLayeredMerge:
      return "JoinStrategy::kLayeredMerge";
    default:
      return "JoinStrategy::kAuto";
  }
}

TEST_F(ParallelEquivalenceTest, QueriesMatchSerialByteForByte) {
  struct Query {
    std::string sql;
    AccessPath path = AccessPath::kAuto;
    JoinStrategy join = JoinStrategy::kAuto;
  };
  std::vector<Query> queries;
  for (AccessPath path :
       {AccessPath::kScan, AccessPath::kBitmap, AccessPath::kLayered}) {
    for (const char* sql : {
             "SELECT * FROM donate WHERE amount BETWEEN 100 AND 320",
             "SELECT * FROM donate WHERE amount BETWEEN 100 AND 320 "
             "WINDOW [600, 1800]",
             "SELECT count(*), sum(amount) FROM donate WHERE amount BETWEEN "
             "50 AND 400 GROUP BY project ORDER BY project DESC LIMIT 3",
             "TRACE OPERATOR = 'donor2'",
             "TRACE [600, 1800] OPERATOR = 'donor2'",
             "TRACE OPERATION = 'transfer'",
             "TRACE OPERATOR = 'donor1', OPERATION = 'donate'",
         }) {
      queries.push_back({sql, path});
    }
  }
  for (JoinStrategy join : {JoinStrategy::kScanHash, JoinStrategy::kBitmapHash,
                            JoinStrategy::kLayeredMerge}) {
    for (const char* sql : {
             "SELECT * FROM donate, transfer ON donate.project = "
             "transfer.project WHERE donate.amount < 60",
             "SELECT * FROM donate, transfer ON donate.project = "
             "transfer.project WHERE donate.amount < 60 WINDOW [600, 1800]",
             "SELECT * FROM donate, transfer ON donate.amount = "
             "transfer.amount",
             "SELECT * FROM onchain.donate, offchain.projectinfo ON "
             "donate.project = projectinfo.project",
             "SELECT * FROM offchain.projectinfo, onchain.donate ON "
             "projectinfo.project = donate.project",
         }) {
      Query q;
      q.sql = sql;
      q.join = join;
      queries.push_back(q);
    }
  }

  ThreadPool pool1(1), pool4(4);
  std::string missing;  // pinned-table lines for unpinned pairs
  for (const auto& q : queries) {
    ExecOptions options;
    options.access_path = q.path;
    options.join_strategy = q.join;

    executor_->set_pool(nullptr);
    ResultSet serial;
    ASSERT_TRUE(executor_->ExecuteSql(q.sql, options, &serial).ok()) << q.sql;
    EXPECT_FALSE(serial.rows.empty()) << q.sql;

    for (ThreadPool* pool : {&pool1, &pool4}) {
      executor_->set_pool(pool);
      ResultSet parallel;
      ASSERT_TRUE(executor_->ExecuteSql(q.sql, options, &parallel).ok())
          << q.sql;
      EXPECT_EQ(serial.plan, parallel.plan) << q.sql;
      EXPECT_EQ(serial.columns, parallel.columns) << q.sql;
      EXPECT_EQ(Rendered(serial), Rendered(parallel))
          << q.sql << " with " << pool->num_threads() << " threads";
    }
    executor_->set_pool(nullptr);

    const std::string digest = RowsDigest(Rendered(serial));
    const PinnedQuery* pinned = nullptr;
    for (const auto& p : kPinnedQueries) {
      if (q.sql == p.sql && q.path == p.path && q.join == p.join) pinned = &p;
    }
    if (pinned == nullptr) {
      missing += "    {\"" + q.sql + "\",\n     " + PathName(q.path) + ", " +
                 JoinName(q.join) + ",\n     \"" + serial.plan + "\",\n     \"" +
                 digest + "\"},\n";
      continue;
    }
    EXPECT_EQ(serial.plan, pinned->plan) << q.sql;
    EXPECT_EQ(digest, pinned->rows_sha256)
        << q.sql << " path=" << PathName(q.path) << " join=" << JoinName(q.join);
  }
  EXPECT_TRUE(missing.empty()) << "unpinned queries:\n" << missing;
}

// ---------------------------------------------------------------------------
// Serial vs parallel startup replay over the same on-disk chain.

TEST(ParallelReplayTest, ReplayMatchesSerial) {
  ScratchDir dir("parallel_replay");
  ChainOptions base;
  base.verify_signatures = false;
  base.store.segment_size = 8 << 10;

  // Build a multi-segment chain, then close it.
  {
    ChainManager writer("writer", nullptr);
    ASSERT_TRUE(writer.Open(base, dir.path()).ok());
    Random rng(7);
    Timestamp ts = 0;
    for (int b = 0; b < 60; b++) {
      std::vector<Transaction> txns;
      int rows = 2 + static_cast<int>(rng.Uniform(6));
      for (int i = 0; i < rows; i++) {
        txns.push_back(MakeTxn("t" + std::to_string(rng.Uniform(3)),
                               "s" + std::to_string(rng.Uniform(5)),
                               ts += 10,
                               {Value::Int(rng.UniformRange(0, 1000))}));
      }
      Timestamp block_ts = 0;
      for (const auto& txn : txns) block_ts = std::max(block_ts, txn.ts());
      ASSERT_TRUE(writer
                      .AppendBatch(writer.height() - 1, std::move(txns),
                                   block_ts, "sig")
                      .ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }

  auto digest_of = [](ChainManager& chain, const std::string& sender) {
    AuthenticatedLayeredIndex* ali = chain.indexes()->senid_ali();
    EXPECT_NE(ali, nullptr);
    Value v = Value::Str(sender);
    Hash256 digest;
    EXPECT_TRUE(
        ali->ComputeDigest(&v, &v, nullptr, ali->num_blocks(), &digest).ok());
    return digest.ToHex();
  };

  // Serial replay.
  ChainManager serial("serial", nullptr);
  ASSERT_TRUE(serial.Open(base, dir.path()).ok());

  // Parallel replay with caches on (the replay should warm the block cache).
  ThreadPool pool(4);
  ChainOptions par = base;
  par.pool = &pool;
  par.store.block_cache_bytes = 8 << 20;
  ChainManager parallel("parallel", nullptr);
  ASSERT_TRUE(parallel.Open(par, dir.path()).ok());

  EXPECT_EQ(serial.height(), parallel.height());
  EXPECT_EQ(serial.height(), 61u);
  EXPECT_EQ(serial.tip_hash().ToHex(), parallel.tip_hash().ToHex());
  EXPECT_EQ(serial.next_tid(), parallel.next_tid());
  for (int s = 0; s < 5; s++) {
    EXPECT_EQ(digest_of(serial, "s" + std::to_string(s)),
              digest_of(parallel, "s" + std::to_string(s)));
  }
  const BlockStore::CacheStats stats = parallel.cache_stats();
  EXPECT_GT(stats.block_capacity, 0u);
  EXPECT_GT(stats.block_usage, 0u);

  ASSERT_TRUE(serial.Close().ok());
  ASSERT_TRUE(parallel.Close().ok());

  // Closed chains refuse record/header reads instead of touching the store.
  std::string record;
  EXPECT_FALSE(serial.GetBlockRecord(0, &record).ok());
  BlockHeader header;
  EXPECT_FALSE(serial.GetHeader(0, &header).ok());
}

// ReadBlocks (the readahead-batched path) must agree with ReadBlock.
TEST(ParallelReplayTest, ReadBlocksMatchesReadBlock) {
  ChainOptions options;
  options.store.segment_size = 8 << 10;
  TestChain chain("readblocks", options);
  Timestamp ts = 0;
  for (int b = 0; b < 25; b++) {
    std::vector<Transaction> txns;
    for (int i = 0; i < 4; i++) {
      txns.push_back(
          MakeTxn("t", "s", ts += 10, {Value::Int(b * 100 + i)}));
    }
    ASSERT_TRUE(chain.AppendBlock(std::move(txns)).ok());
  }
  const uint64_t n = chain.store()->num_blocks();
  std::vector<std::shared_ptr<const Block>> batched;
  ASSERT_TRUE(chain.store()->ReadBlocks(0, n, &batched).ok());
  ASSERT_EQ(batched.size(), n);
  for (uint64_t h = 0; h < n; h++) {
    std::shared_ptr<const Block> single;
    ASSERT_TRUE(chain.store()->ReadBlock(h, &single).ok());
    std::string a, b;
    single->EncodeTo(&a);
    batched[h]->EncodeTo(&b);
    EXPECT_EQ(a, b) << "height " << h;
  }
  // Partial range crossing a segment boundary.
  std::vector<std::shared_ptr<const Block>> middle;
  ASSERT_TRUE(chain.store()->ReadBlocks(n / 3, n / 2, &middle).ok());
  ASSERT_EQ(middle.size(), n / 2);
  for (uint64_t i = 0; i < middle.size(); i++) {
    EXPECT_EQ(middle[i]->height(), n / 3 + i);
  }
}

}  // namespace
}  // namespace sebdb
