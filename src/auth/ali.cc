#include "auth/ali.h"

#include <algorithm>

#include "common/coding.h"

namespace sebdb {

void AliBlockProof::EncodeTo(std::string* dst) const {
  PutVarint64(dst, block);
  vo.EncodeTo(dst);
}

Status AliBlockProof::DecodeFrom(Slice* input, AliBlockProof* out) {
  uint64_t bid;
  if (!GetVarint64(input, &bid)) return Status::Corruption("truncated proof");
  out->block = bid;
  return VerificationObject::DecodeFrom(input, &out->vo);
}

size_t AuthQueryResponse::ByteSize() const {
  std::string enc;
  EncodeTo(&enc);
  return enc.size();
}

void AuthQueryResponse::EncodeTo(std::string* dst) const {
  PutVarint64(dst, chain_height);
  PutVarint32(dst, static_cast<uint32_t>(proofs.size()));
  for (const auto& proof : proofs) proof.EncodeTo(dst);
}

Status AuthQueryResponse::DecodeFrom(Slice* input, AuthQueryResponse* out) {
  uint64_t height;
  uint32_t n;
  if (!GetVarint64(input, &height) || !GetVarint32(input, &n)) {
    return Status::Corruption("truncated auth response");
  }
  out->chain_height = height;
  out->proofs.resize(n);
  for (auto& proof : out->proofs) {
    Status s = AliBlockProof::DecodeFrom(input, &proof);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

namespace {

/// A block's transactions as an MB-tree record source: position = the txn's
/// place in the block, key = the index's extractor, record = its encoding.
/// A block that came as its record decodes only the transactions a prove
/// touches, and checks each record it serves against the tree's leaf hash.
class BlockRecords final : public MbTree::RecordSource {
 public:
  BlockRecords(BlockId bid, const AuthenticatedLayeredIndex::RawBlock& block,
               const ColumnExtractor& extractor)
      : bid_(bid), block_(block), extractor_(extractor) {}

  Status Key(uint32_t position, Value* key) const override {
    if (block_.decoded != nullptr) {
      const auto& txns = block_.decoded->transactions();
      if (position < txns.size() && extractor_(txns[position], key)) {
        return Status::OK();
      }
      return Missing(position);
    }
    Transaction txn;
    Status s = Block::DecodeOneTransaction(block_.record, position, &txn);
    if (!s.ok()) return s;
    return extractor_(txn, key) ? Status::OK() : Missing(position);
  }

  Status Record(uint32_t position, const Hash256& leaf,
                std::string* record) const override {
    if (block_.decoded != nullptr) {
      const auto& txns = block_.decoded->transactions();
      if (position >= txns.size()) return Missing(position);
      record->clear();
      txns[position].EncodeTo(record);
      return Status::OK();
    }
    Slice bytes;
    Status s = Block::TransactionBytes(block_.record, position, &bytes);
    if (!s.ok()) return s;
    if (Sha256::Digest(bytes) != leaf) {
      return Status::Corruption("block " + std::to_string(bid_) +
                                ": record at position " +
                                std::to_string(position) +
                                " does not match its MB-tree leaf");
    }
    record->assign(bytes.data(), bytes.size());
    return Status::OK();
  }

 private:
  Status Missing(uint32_t position) const {
    return Status::Corruption("block " + std::to_string(bid_) +
                              " has no indexed txn at position " +
                              std::to_string(position));
  }

  const BlockId bid_;
  const AuthenticatedLayeredIndex::RawBlock& block_;
  const ColumnExtractor& extractor_;
};

/// One extractor pass over a block: the (key, position) pairs of the txns
/// the index covers, in position order, and the SHA-256 of each one's
/// encoding (encoded into one reused buffer).
void ExtractBlock(const Block& block, const ColumnExtractor& extractor,
                  std::vector<std::pair<Value, uint32_t>>* keyed,
                  std::vector<Hash256>* record_hashes) {
  const auto& txns = block.transactions();
  std::string record;
  for (uint32_t i = 0; i < txns.size(); i++) {
    Value key;
    if (!extractor(txns[i], &key)) continue;
    record.clear();
    txns[i].EncodeTo(&record);
    record_hashes->push_back(Sha256::Digest(record));
    keyed->emplace_back(std::move(key), i);
  }
}

/// MB-tree entries in (key, position) order from position-ordered keys and
/// their record hashes.
std::vector<MbTree::Entry> SortedEntries(
    const std::vector<std::pair<Value, uint32_t>>& keyed,
    const std::vector<Hash256>& record_hashes) {
  std::vector<uint32_t> order(keyed.size());
  for (uint32_t i = 0; i < order.size(); i++) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const int cmp = keyed[a].first.CompareTotal(keyed[b].first);
    return cmp != 0 ? cmp < 0 : keyed[a].second < keyed[b].second;
  });
  std::vector<MbTree::Entry> entries(order.size());
  for (size_t i = 0; i < order.size(); i++) {
    entries[i] = {keyed[order[i]].second, record_hashes[order[i]]};
  }
  return entries;
}

}  // namespace

AuthenticatedLayeredIndex::AuthenticatedLayeredIndex(
    std::string name, LayeredIndexOptions options, ColumnExtractor extractor,
    MbTree::Options mb_options)
    : layered_(std::move(name), options, extractor),
      extractor_(std::move(extractor)),
      mb_options_(mb_options),
      rebuilt_(options.materialized_cache_bytes > 0
                   ? std::make_unique<LruCache<uint64_t, const MbTree>>(
                         options.materialized_cache_bytes)
                   : nullptr) {}

Status AuthenticatedLayeredIndex::SetHistogram(EqualDepthHistogram histogram) {
  return layered_.SetHistogram(std::move(histogram));
}

Status AuthenticatedLayeredIndex::AddBlock(const Block& block) {
  // Extraction + MergeTxnDeltas, like LayeredIndex::AddBlock: one extractor
  // pass feeds both the layered entries and the MB-tree leaves, and the
  // merge half is shared with the parallel apply pipeline.
  std::vector<std::pair<Value, uint32_t>> keyed;
  std::vector<Hash256> record_hashes;
  ExtractBlock(block, extractor_, &keyed, &record_hashes);
  return MergeTxnDeltas(block.height(), std::move(keyed), record_hashes);
}

Status AuthenticatedLayeredIndex::MergeTxnDeltas(
    uint64_t height, std::vector<std::pair<Value, uint32_t>> layered_entries,
    const std::vector<Hash256>& record_hashes) {
  if (record_hashes.size() != layered_entries.size()) {
    return Status::InvalidArgument("one record hash per layered entry");
  }
  std::vector<MbTree::Entry> entries =
      SortedEntries(layered_entries, record_hashes);
  Status s = layered_.MergeTxnDeltas(height, std::move(layered_entries));
  if (!s.ok()) return s;

  std::shared_ptr<const MbTree> tree =
      entries.empty() ? nullptr
                      : std::shared_ptr<const MbTree>(
                            MbTree::Build(entries, mb_options_));
  roots_.push_back(tree == nullptr ? Hash256{} : tree->root_hash());
  block_trees_.push_back(std::move(tree));
  return Status::OK();
}

Bitmap AuthenticatedLayeredIndex::BlocksToVisit(const Value* lo,
                                                const Value* hi,
                                                const Bitmap* window,
                                                uint64_t height_limit) const {
  Bitmap candidates = layered_.CandidateBlocks(lo, hi);
  if (window != nullptr) candidates.And(*window);
  // Pin the snapshot: ignore blocks at or above the height limit.
  for (size_t bid = height_limit; bid < candidates.size(); bid++) {
    if (candidates.Test(bid)) candidates.Clear(bid);
  }
  return candidates;
}

Status AuthenticatedLayeredIndex::BlockRoot(BlockId bid, Hash256* out) const {
  if (bid >= roots_.size()) {
    return Status::NotFound("block not indexed");
  }
  *out = roots_[bid];
  return Status::OK();
}

Status AuthenticatedLayeredIndex::Tree(
    BlockId bid, std::shared_ptr<const MbTree>* out) const {
  return TreeAndBlock(bid, out, nullptr);
}

Status AuthenticatedLayeredIndex::TreeAndBlock(
    BlockId bid, std::shared_ptr<const MbTree>* tree, RawBlock* block) const {
  if (bid >= roots_.size()) return Status::NotFound("block not indexed");
  if (bid >= mem_base_) {
    *tree = block_trees_[bid - mem_base_];
  } else if (roots_[bid] == Hash256{}) {  // no indexed entries — no tree
    *tree = nullptr;
  } else if (auto cached =
                 rebuilt_ != nullptr ? rebuilt_->Lookup(bid) : nullptr) {
    *tree = std::move(cached);
  } else {
    return RebuildTree(bid, tree, block);
  }
  if (block == nullptr || *tree == nullptr) return Status::OK();
  if (loader_ == nullptr) {
    return Status::InvalidArgument("no block loader installed");
  }
  return loader_(bid, /*whole=*/false, block);
}

Status AuthenticatedLayeredIndex::RebuildTree(
    BlockId bid, std::shared_ptr<const MbTree>* tree, RawBlock* block) const {
  if (loader_ == nullptr) {
    return Status::InvalidArgument("no block loader installed");
  }
  RawBlock raw;
  Status s = loader_(bid, /*whole=*/true, &raw);
  if (!s.ok()) return s;
  if (raw.decoded == nullptr) {
    return Status::InvalidArgument("block loader gave no decoded block for " +
                                   std::to_string(bid));
  }
  std::vector<std::pair<Value, uint32_t>> keyed;
  std::vector<Hash256> record_hashes;
  ExtractBlock(*raw.decoded, extractor_, &keyed, &record_hashes);
  std::shared_ptr<const MbTree> rebuilt =
      keyed.empty() ? nullptr
                    : std::shared_ptr<const MbTree>(MbTree::Build(
                          SortedEntries(keyed, record_hashes), mb_options_));
  // The rebuilt tree must reproduce the root recorded when the block was
  // first indexed; anything else means the raw block changed underneath us.
  Hash256 root = rebuilt == nullptr ? Hash256{} : rebuilt->root_hash();
  if (root != roots_[bid]) {
    return Status::Corruption("rebuilt MB-tree root mismatch for block " +
                              std::to_string(bid));
  }
  if (rebuilt != nullptr && rebuilt_ != nullptr) {
    rebuilt_->Insert(bid, rebuilt, rebuilt->ByteSize());
  }
  *tree = std::move(rebuilt);
  if (block != nullptr) *block = std::move(raw);
  return Status::OK();
}

LruCache<uint64_t, const MbTree>::Stats
AuthenticatedLayeredIndex::rebuild_cache_stats() const {
  return rebuilt_ != nullptr ? rebuilt_->stats()
                             : LruCache<uint64_t, const MbTree>::Stats{};
}

Status AuthenticatedLayeredIndex::ProveRange(const Value* lo, const Value* hi,
                                             const Bitmap* window,
                                             uint64_t chain_height,
                                             AuthQueryResponse* out) const {
  out->chain_height = chain_height;
  out->proofs.clear();
  Bitmap candidates = BlocksToVisit(lo, hi, window, chain_height);
  for (size_t bid : candidates.SetBits()) {
    std::shared_ptr<const MbTree> tree;
    RawBlock block;
    Status s = TreeAndBlock(bid, &tree, &block);
    if (!s.ok()) return s;
    if (tree == nullptr) continue;  // candidate bitmaps only cover non-empty
    AliBlockProof proof;
    proof.block = bid;
    s = tree->ProveRange(BlockRecords(bid, block, extractor_), lo, hi,
                         &proof.vo);
    if (!s.ok()) return s;
    out->proofs.push_back(std::move(proof));
  }
  return Status::OK();
}

Status AuthenticatedLayeredIndex::ComputeDigest(const Value* lo,
                                                const Value* hi,
                                                const Bitmap* window,
                                                uint64_t chain_height,
                                                Hash256* digest) const {
  Bitmap candidates = BlocksToVisit(lo, hi, window, chain_height);
  Sha256 ctx;
  for (size_t bid : candidates.SetBits()) {
    if (roots_[bid] == Hash256{}) continue;
    ctx.Update(roots_[bid].bytes.data(), 32);
  }
  *digest = ctx.Finish();
  return Status::OK();
}

Status AuthenticatedLayeredIndex::VerifyResponse(
    const AuthQueryResponse& response, const Value* lo, const Value* hi,
    const RecordKeyFn& key_of, const std::vector<Hash256>& auxiliary_digests,
    size_t required_matching, std::vector<std::string>* records) {
  // Reconstruct every block's MB-tree root from its VO and verify the
  // per-block soundness/completeness rules.
  std::vector<std::string> all_records;
  Sha256 digest_ctx;
  BlockId prev_block = 0;
  bool first = true;
  for (const auto& proof : response.proofs) {
    if (!first && proof.block <= prev_block) {
      return Status::VerificationFailed("proof blocks out of order");
    }
    first = false;
    prev_block = proof.block;
    Hash256 root;
    std::vector<std::string> block_records;
    Status s =
        MbTree::ReconstructRoot(proof.vo, lo, hi, key_of, &block_records, &root);
    if (!s.ok()) return s;
    digest_ctx.Update(root.bytes.data(), 32);
    for (auto& record : block_records) {
      all_records.push_back(std::move(record));
    }
  }
  Hash256 reconstructed = digest_ctx.Finish();

  size_t matching = 0;
  for (const auto& digest : auxiliary_digests) {
    if (digest == reconstructed) matching++;
  }
  if (matching < required_matching) {
    return Status::VerificationFailed(
        "only " + std::to_string(matching) + " of " +
        std::to_string(auxiliary_digests.size()) +
        " auxiliary digests match (need " +
        std::to_string(required_matching) + ")");
  }
  for (auto& record : all_records) records->push_back(std::move(record));
  return Status::OK();
}

void AuthenticatedLayeredIndex::AdoptFrozen(
    BufferManager* pool, BufferManager::FileId file,
    const std::vector<LayeredIndex::FrozenTreeRef>& refs) {
  layered_.AdoptFrozen(pool, file, refs);
  // The adopted blocks' MB-trees become rebuild-on-demand: this is the
  // memory bound. Roots stay — they are the verification anchor.
  block_trees_.erase(block_trees_.begin(),
                     block_trees_.begin() +
                         std::min(refs.size(), block_trees_.size()));
  mem_base_ += refs.size();
}

void AuthenticatedLayeredIndex::EncodeCheckpointState(
    const std::vector<LayeredIndex::FrozenTreeRef>& pending,
    std::string* dst) const {
  std::string layered_state;
  layered_.EncodeCheckpointState(pending, &layered_state);
  PutLengthPrefixed(dst, layered_state);
  PutVarint64(dst, roots_.size());
  for (const Hash256& root : roots_) {
    dst->append(reinterpret_cast<const char*>(root.bytes.data()), 32);
  }
}

Status AuthenticatedLayeredIndex::RestoreCheckpoint(
    BufferManager* pool, std::vector<BufferManager::FileId> files,
    Slice state) {
  Slice in = state;
  Slice layered_state;
  if (!GetLengthPrefixed(&in, &layered_state)) {
    return Status::Corruption("truncated ALI checkpoint state");
  }
  Status s = layered_.RestoreCheckpoint(pool, std::move(files), layered_state);
  if (!s.ok()) return s;
  uint64_t nroots;
  if (!GetVarint64(&in, &nroots) || nroots != layered_.num_blocks() ||
      in.size() < nroots * 32) {
    return Status::Corruption("truncated ALI root list");
  }
  roots_.resize(nroots);
  for (uint64_t i = 0; i < nroots; i++) {
    std::memcpy(roots_[i].bytes.data(), in.data(), 32);
    in.remove_prefix(32);
  }
  mem_base_ = nroots;
  block_trees_.clear();
  return Status::OK();
}

}  // namespace sebdb
