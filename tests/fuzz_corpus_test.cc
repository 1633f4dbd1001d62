// Replays the checked-in fuzz seed corpora (fuzz/corpus/**) through the
// harness entry points, plus a deterministic mutation neighborhood of each
// seed — the same mutations the standalone fuzz driver applies, so a crash
// found by the smoke run reproduces here under the debugger. Also pins the
// reject-or-equal contract explicitly for the seeds themselves: every seed
// is a valid input, so decoders must accept it and round-trip it exactly.
#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "common/slice.h"
#include "fuzz/harnesses.h"
#include "fuzz/mutate.h"
#include "network/frame.h"
#include "storage/block.h"
#include "types/transaction.h"

#ifndef SEBDB_FUZZ_CORPUS_DIR
#error "build with -DSEBDB_FUZZ_CORPUS_DIR=\"<repo>/fuzz/corpus\""
#endif

namespace sebdb {
namespace {

using FuzzEntry = int (*)(const uint8_t*, size_t);

std::vector<std::string> CorpusFiles(const std::string& subdir) {
  const std::string dir = std::string(SEBDB_FUZZ_CORPUS_DIR) + "/" + subdir;
  std::vector<std::string> files;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return files;
  while (struct dirent* entry = readdir(d)) {
    if (entry->d_name[0] == '.') continue;
    files.push_back(dir + "/" + entry->d_name);
  }
  closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void ReplayCorpus(const std::string& subdir, FuzzEntry entry) {
  const auto files = CorpusFiles(subdir);
  ASSERT_FALSE(files.empty())
      << "no seeds under " << SEBDB_FUZZ_CORPUS_DIR << "/" << subdir
      << " — regenerate with: build/fuzz/make_corpus fuzz/corpus";
  for (const auto& path : files) {
    SCOPED_TRACE(path);
    const std::string seed = ReadFileOrDie(path);
    entry(reinterpret_cast<const uint8_t*>(seed.data()), seed.size());
    for (uint64_t round = 0; round < 256; round++) {
      const std::string mutated = fuzz::MutateInput(seed, /*seed=*/1, round);
      entry(reinterpret_cast<const uint8_t*>(mutated.data()), mutated.size());
    }
  }
}

TEST(FuzzCorpusTest, TransactionDecode) {
  ReplayCorpus("transaction_decode", fuzz::FuzzTransactionDecode);
}

TEST(FuzzCorpusTest, BlockDecode) {
  ReplayCorpus("block_decode", fuzz::FuzzBlockDecode);
}

TEST(FuzzCorpusTest, Coding) { ReplayCorpus("coding", fuzz::FuzzCoding); }

TEST(FuzzCorpusTest, SqlParser) {
  ReplayCorpus("sql_parser", fuzz::FuzzSqlParser);
}

TEST(FuzzCorpusTest, VoVerify) {
  ReplayCorpus("vo_verify", fuzz::FuzzVoVerify);
}

TEST(FuzzCorpusTest, PageDecode) {
  ReplayCorpus("page_decode", fuzz::FuzzPageDecode);
}

TEST(FuzzCorpusTest, TcpFrame) {
  ReplayCorpus("tcp_frame", fuzz::FuzzTcpFrame);
}

TEST(FuzzCorpusTest, Sha256) { ReplayCorpus("sha256", fuzz::FuzzSha256); }

// Every TCP frame seed is a valid frame: the strict decoder must accept it
// and round-trip it byte-exactly (the reject-or-round-trip contract's
// accept half, pinned on the checked-in corpus itself; the harness pins it
// on the mutation neighborhood).
TEST(FuzzCorpusTest, TcpFrameSeedsRoundTrip) {
  for (const auto& path : CorpusFiles("tcp_frame")) {
    const std::string bytes = ReadFileOrDie(path);
    Slice input(bytes);
    Message message;
    // frame_pair holds two concatenated frames; each must decode in turn.
    while (!input.empty()) {
      ASSERT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &message).ok())
          << Basename(path);
      std::string reencoded;
      EncodeFrame(message, &reencoded);
      ASSERT_NE(bytes.find(reencoded), std::string::npos) << Basename(path);
    }
  }
}

// The transaction seeds are valid encodings: decode must accept them and
// re-encoding must reproduce the input bytes exactly (a byte of slack would
// mean hashes — and therefore consensus — diverge between encoder versions).
TEST(FuzzCorpusTest, TransactionSeedsRoundTripExactly) {
  for (const auto& path : CorpusFiles("transaction_decode")) {
    if (Basename(path).rfind("txn_", 0) != 0) continue;  // bare Value seeds
    SCOPED_TRACE(path);
    const std::string seed = ReadFileOrDie(path);
    Slice input(seed);
    Transaction txn;
    ASSERT_TRUE(Transaction::DecodeFrom(&input, &txn).ok());
    EXPECT_TRUE(input.empty()) << "trailing bytes after a full decode";
    std::string reencoded;
    txn.EncodeTo(&reencoded);
    EXPECT_EQ(reencoded, seed);
  }
}

// Block seeds must decode, validate (Merkle root + header hash), and
// round-trip byte-exactly.
TEST(FuzzCorpusTest, BlockSeedsValidateAndRoundTrip) {
  for (const auto& path : CorpusFiles("block_decode")) {
    if (Basename(path).rfind("block_", 0) != 0) continue;  // header seeds
    SCOPED_TRACE(path);
    const std::string seed = ReadFileOrDie(path);
    Slice input(seed);
    Block block;
    ASSERT_TRUE(Block::DecodeFrom(&input, &block).ok());
    EXPECT_TRUE(block.Validate().ok());
    std::string reencoded;
    block.EncodeTo(&reencoded);
    EXPECT_EQ(reencoded, seed);
  }
}

}  // namespace
}  // namespace sebdb
