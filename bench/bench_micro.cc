// Microbenchmarks (google-benchmark) for the building blocks whose costs
// drive the figure-level results: SHA-256 (both kernels), Merkle tree
// construction, B+-tree insert/seek/bulk-load, MB-tree build/prove/verify,
// bitmap AND, block encode/decode, single-transaction random decode, and an
// ALI block tree's rebuild and cached prove.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "auth/ali.h"
#include "auth/mbtree.h"
#include "common/bitmap.h"
#include "common/random.h"
#include "common/sha256.h"
#include "common/sha256_internal.h"
#include "index/bptree.h"
#include "storage/block.h"
#include "storage/buffer_manager.h"
#include "storage/file.h"
#include "storage/merkle_tree.h"

namespace sebdb {
namespace {

// SHA-256 through the kernel this CPU selects (SHA-NI where present).
void BM_Sha256(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(300)->Arg(4096)->Arg(1 << 20);

// The portable fallback kernel on the same inputs, so both kernels show on
// one host.
void BM_Sha256Portable(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    Sha256 ctx(sha256_internal::CompressPortable);
    ctx.Update(data);
    benchmark::DoNotOptimize(ctx.Finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(300)->Arg(4096)->Arg(1 << 20);

// One Merkle / MB-tree interior node: the digest of two child digests.
void BM_Sha256Pair(benchmark::State& state) {
  Hash256 left = Sha256::Digest(Slice("left"));
  const Hash256 right = Sha256::Digest(Slice("right"));
  for (auto _ : state) {
    left = Sha256::DigestPair(left, right);
    benchmark::DoNotOptimize(left);
  }
}
BENCHMARK(BM_Sha256Pair);

void BM_MerkleTreeBuild(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < state.range(0); i++) {
    leaves.push_back(Sha256::Digest(Slice("leaf" + std::to_string(i))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::ComputeRoot(leaves));
  }
}
BENCHMARK(BM_MerkleTreeBuild)->Arg(200)->Arg(1000);

void BM_BpTreeInsert(benchmark::State& state) {
  Random rng(1);
  for (auto _ : state) {
    BpTree<int64_t, int> tree;
    for (int i = 0; i < state.range(0); i++) {
      tree.Insert(static_cast<int64_t>(rng.Next() % 100000), i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_BpTreeInsert)->Arg(1000)->Arg(10000);

void BM_BpTreeBulkLoad(benchmark::State& state) {
  std::vector<std::pair<int64_t, int>> entries;
  for (int i = 0; i < state.range(0); i++) entries.push_back({i, i});
  for (auto _ : state) {
    BpTree<int64_t, int> tree;
    auto copy = entries;
    tree.BulkLoad(std::move(copy));
    benchmark::DoNotOptimize(tree.height());
  }
}
BENCHMARK(BM_BpTreeBulkLoad)->Arg(1000)->Arg(10000);

void BM_BpTreeSeek(benchmark::State& state) {
  BpTree<int64_t, int> tree;
  for (int i = 0; i < 100000; i++) tree.Insert(i, i);
  Random rng(2);
  for (auto _ : state) {
    auto it = tree.SeekGE(static_cast<int64_t>(rng.Uniform(100000)));
    benchmark::DoNotOptimize(it.Valid());
  }
}
BENCHMARK(BM_BpTreeSeek);

SortedRecordSource MbRecords(int n) {
  SortedRecordSource records;
  for (int i = 0; i < n; i++) {
    records.Add(Value::Int(i),
                "record-" + std::to_string(i) + std::string(280, 'p'));
  }
  return records;
}

// Hashing n ~300 B records and building the tree over them.
void BM_MbTreeBuild(benchmark::State& state) {
  const SortedRecordSource records = MbRecords(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto tree = MbTree::Build(records.Entries());
    benchmark::DoNotOptimize(tree->root_hash());
  }
}
BENCHMARK(BM_MbTreeBuild)->Arg(200)->Arg(1000);

void BM_MbTreeProveRange(benchmark::State& state) {
  const SortedRecordSource records = MbRecords(1000);
  auto tree = MbTree::Build(records.Entries());
  Value lo = Value::Int(400), hi = Value::Int(500);
  for (auto _ : state) {
    VerificationObject vo;
    tree->ProveRange(records, &lo, &hi, &vo);
    benchmark::DoNotOptimize(vo.ByteSize());
  }
}
BENCHMARK(BM_MbTreeProveRange);

void BM_MbTreeVerifyRange(benchmark::State& state) {
  const SortedRecordSource records = MbRecords(1000);
  auto tree = MbTree::Build(records.Entries());
  Value lo = Value::Int(400), hi = Value::Int(500);
  VerificationObject vo;
  tree->ProveRange(records, &lo, &hi, &vo);
  auto key_fn = [](const Slice& record, Value* key) -> Status {
    std::string text = record.ToString();
    size_t dash = text.find('-');
    size_t pad = text.find('p');
    *key = Value::Int(std::stoll(text.substr(dash + 1, pad - dash - 1)));
    return Status::OK();
  };
  for (auto _ : state) {
    std::vector<std::string> records;
    Status s = MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, key_fn,
                                   &records);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(records.size());
  }
}
BENCHMARK(BM_MbTreeVerifyRange);

void BM_BitmapAnd(benchmark::State& state) {
  Random rng(5);
  Bitmap a(state.range(0)), b(state.range(0));
  for (int i = 0; i < state.range(0) / 4; i++) {
    a.Set(rng.Uniform(state.range(0)));
    b.Set(rng.Uniform(state.range(0)));
  }
  for (auto _ : state) {
    Bitmap c = a;
    c.And(b);
    benchmark::DoNotOptimize(c.AnySet());
  }
}
BENCHMARK(BM_BitmapAnd)->Arg(2500)->Arg(100000);

Block MakeBenchBlock(int txns, BlockId height = 1) {
  BlockBuilder builder;
  builder.SetHeight(height).SetTimestamp(1).SetFirstTid(1);
  for (int i = 0; i < txns; i++) {
    Transaction txn("donate",
                    {Value::Str("donor" + std::to_string(i)),
                     Value::Str("project"), Value::Int(i)});
    txn.set_sender("org" + std::to_string(i % 10));
    txn.set_ts(i);
    txn.set_signature(std::string(64, 's'));
    builder.AddTransaction(std::move(txn));
  }
  return std::move(builder).Build("sig");
}

void BM_BlockEncode(benchmark::State& state) {
  Block block = MakeBenchBlock(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string buf;
    block.EncodeTo(&buf);
    benchmark::DoNotOptimize(buf.size());
  }
}
BENCHMARK(BM_BlockEncode)->Arg(200);

void BM_BlockDecode(benchmark::State& state) {
  Block block = MakeBenchBlock(static_cast<int>(state.range(0)));
  std::string buf;
  block.EncodeTo(&buf);
  for (auto _ : state) {
    Block decoded;
    Slice input(buf);
    Status s = Block::DecodeFrom(&input, &decoded);
    if (!s.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(decoded.transactions().size());
  }
  state.SetBytesProcessed(state.iterations() * buf.size());
}
BENCHMARK(BM_BlockDecode)->Arg(200);

void BM_BlockDecodeOneTransaction(benchmark::State& state) {
  Block block = MakeBenchBlock(200);
  std::string buf;
  block.EncodeTo(&buf);
  Random rng(9);
  for (auto _ : state) {
    Transaction txn;
    Status s = Block::DecodeOneTransaction(
        buf, static_cast<uint32_t>(rng.Uniform(200)), &txn);
    if (!s.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(txn.tid());
  }
}
BENCHMARK(BM_BlockDecodeOneTransaction);

// An SenID ALI over one 200-txn block (10 senders), checkpointed and
// restored, so the block's MB-tree is rebuilt from the raw block on demand
// into a rebuild LRU of `cache_bytes`. A prove gets the block decoded, or
// with `records` as its serialized record (a block not in the block cache).
class RestoredAli {
 public:
  explicit RestoredAli(uint64_t cache_bytes, bool records = false)
      : dir_("/tmp/sebdb_bench_micro_" + std::to_string(::getpid())) {
    blocks_.push_back(std::make_shared<const Block>(MakeBenchBlock(200, 0)));
    blocks_[0]->EncodeTo(&record_);
    LayeredIndexOptions options;
    options.discrete = true;
    options.materialized_cache_bytes = cache_bytes;
    auto sender = [](const Transaction& txn, Value* out) {
      *out = Value::Str(txn.sender());
      return true;
    };
    AuthenticatedLayeredIndex source("senid", options, sender);
    ali_ = std::make_unique<AuthenticatedLayeredIndex>("senid", options,
                                                       sender);
    ali_->SetBlockLoader([this, records](
                             BlockId bid, bool whole,
                             AuthenticatedLayeredIndex::RawBlock* out) {
      if (records && !whole) {
        out->record = record_;
      } else {
        out->decoded = blocks_.at(bid);
      }
      return Status::OK();
    });
    BufferManager::FileId file;
    std::vector<LayeredIndex::FrozenTreeRef> refs;
    std::string state;
    Status s = CreateDirIfMissing(dir_);
    if (s.ok()) s = source.AddBlock(*blocks_[0]);
    if (s.ok()) s = pool_.CreateFile(dir_ + "/ali", &file);
    if (s.ok()) s = source.WriteFrozenDelta(&pool_, file, 1, &refs);
    if (s.ok()) s = pool_.Flush(file);
    if (s.ok()) {
      source.EncodeCheckpointState(refs, &state);
      s = ali_->RestoreCheckpoint(&pool_, {file}, state);
    }
    if (!s.ok()) abort();
  }
  ~RestoredAli() { RemoveDirRecursive(dir_); }

  const AuthenticatedLayeredIndex& ali() const { return *ali_; }

 private:
  std::string dir_;
  BufferManager pool_{BufferPoolOptions()};
  std::vector<std::shared_ptr<const Block>> blocks_;
  std::string record_;
  std::unique_ptr<AuthenticatedLayeredIndex> ali_;
};

// One 200-txn block's MB-tree rebuilt from the raw block (no rebuild LRU):
// extract keys, hash the encoded txns, sort, build, check the root.
void BM_AliRebuild(benchmark::State& state) {
  RestoredAli restored(0);
  for (auto _ : state) {
    std::shared_ptr<const MbTree> tree;
    if (!restored.ali().Tree(0, &tree).ok()) state.SkipWithError("rebuild");
    benchmark::DoNotOptimize(tree.get());
  }
}
BENCHMARK(BM_AliRebuild);

// A point prove (20 of the block's 200 txns) on that block with its tree
// in the rebuild LRU; the block comes decoded (a block-cache hit), or with
// Arg 1 as its record (binary-search probes and exposed records decoded or
// sliced from it, each exposed record checked against its leaf hash). The
// record copy stands in for the store's read of it.
void BM_AliProveCached(benchmark::State& state) {
  RestoredAli restored(LayeredIndexOptions().materialized_cache_bytes,
                       state.range(0) != 0);
  const Value key = Value::Str("org7");
  for (auto _ : state) {
    AuthQueryResponse response;
    Status s = restored.ali().ProveRange(&key, &key, nullptr, 1, &response);
    if (!s.ok()) state.SkipWithError("prove");
    benchmark::DoNotOptimize(response.proofs.size());
  }
}
BENCHMARK(BM_AliProveCached)->Arg(0)->Arg(1);

}  // namespace
}  // namespace sebdb

// Like BENCHMARK_MAIN(), but defaults to machine-readable JSON output in
// BENCH_micro.json (pass --benchmark_out=... to override).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
