#include "index/block_index.h"

#include <algorithm>

namespace sebdb {

Status BlockIndex::Add(const BlockHeader& header) {
  if (header.height != num_blocks()) {
    return Status::InvalidArgument("non-consecutive block index entry");
  }
  if (header.timestamp < last_ts_) {
    return Status::InvalidArgument("block timestamp went backwards");
  }
  if (header.num_transactions > 0 && header.first_tid < next_tid_) {
    return Status::InvalidArgument("block first_tid went backwards");
  }
  BlockIndexKey key{header.height, header.first_tid, header.timestamp};
  BlockIndexEntry entry{header.height, header.first_tid,
                        header.num_transactions, header.timestamp};
  tree_.Insert(key, entry);
  last_ts_ = header.timestamp;
  if (header.num_transactions > 0) {
    next_tid_ = header.first_tid + header.num_transactions;
  }
  return Status::OK();
}

Status BlockIndex::FindByBlockId(BlockId bid, BlockIndexEntry* out) const {
  if (bid >= num_blocks()) {
    return Status::NotFound("no block with id " + std::to_string(bid));
  }
  if (bid >= frozen_blocks_) {
    auto it = tree_.SeekFirstTrue(
        [bid](const BlockIndexKey& k) { return k.bid >= bid; });
    if (!it.Valid() || it.key().bid != bid) {
      return Status::NotFound("no block with id " + std::to_string(bid));
    }
    *out = it.value();
    return Status::OK();
  }
  // Heights are dense, so the covering segment is found by range and the
  // entry by one disk descent.
  auto seg = std::upper_bound(
      segments_.begin(), segments_.end(), bid,
      [](BlockId b, const LiveSegment& s) { return b < s.ref.first; });
  if (seg == segments_.begin()) {
    return Status::NotFound("no block with id " + std::to_string(bid));
  }
  --seg;
  DiskTree tree(pool_, {seg->file, seg->ref.root, seg->ref.entries});
  auto it = tree.SeekFirstTrue(
      [bid](const BlockIndexKey& k) { return k.bid >= bid; });
  if (!it.status().ok()) return it.status();
  if (!it.Valid() || it.key().bid != bid) {
    return Status::Corruption("block " + std::to_string(bid) +
                              " missing from checkpoint segment");
  }
  *out = it.value();
  return Status::OK();
}

Status BlockIndex::VisitFrom(
    const std::function<bool(const BlockIndexKey&)>& pred,
    const std::function<bool(const BlockIndexEntry&)>& visit) const {
  // Once the first pred-true entry is found, every later entry is true too
  // (monotone predicate), so the scan streams through the remaining
  // segments and the in-memory tail with plain Begin().
  bool streaming = false;
  for (size_t i = 0; i < segments_.size(); i++) {
    if (!streaming) {
      // Segment i is all-false if the next segment's first key is false.
      if (i + 1 < segments_.size() &&
          !pred(segments_[i + 1].ref.first_key)) {
        continue;
      }
    }
    const LiveSegment& seg = segments_[i];
    DiskTree tree(pool_, {seg.file, seg.ref.root, seg.ref.entries});
    auto it = streaming ? tree.Begin() : tree.SeekFirstTrue(pred);
    for (; it.Valid(); it.Next()) {
      streaming = true;
      if (!visit(it.value())) return Status::OK();
    }
    if (!it.status().ok()) return it.status();
  }
  if (streaming) {
    for (auto it = tree_.Begin(); it.Valid(); it.Next()) {
      if (!visit(it.value())) return Status::OK();
    }
  } else {
    for (auto it = tree_.SeekFirstTrue(pred); it.Valid(); it.Next()) {
      if (!visit(it.value())) return Status::OK();
    }
  }
  return Status::OK();
}

Status BlockIndex::FindByTid(TransactionId tid, BlockIndexEntry* out) const {
  // The containing block is the last one with first_tid <= tid. Seek the
  // first block with first_tid > tid; the answer is its predecessor (bids
  // are dense, so predecessor lookup is by id).
  std::optional<BlockIndexEntry> successor;
  Status s = VisitFrom(
      [tid](const BlockIndexKey& k) { return k.first_tid > tid; },
      [&successor](const BlockIndexEntry& e) {
        successor = e;
        return false;
      });
  if (!s.ok()) return s;
  BlockId candidate;
  if (successor.has_value()) {
    if (successor->bid == 0) {
      return Status::NotFound("tid precedes the chain");
    }
    candidate = successor->bid - 1;
  } else {
    if (num_blocks() == 0) return Status::NotFound("empty chain");
    candidate = num_blocks() - 1;
  }
  BlockIndexEntry entry;
  s = FindByBlockId(candidate, &entry);
  if (!s.ok()) return s;
  if (tid < entry.first_tid ||
      tid >= entry.first_tid + entry.num_transactions) {
    return Status::NotFound("no block contains tid " + std::to_string(tid));
  }
  *out = entry;
  return Status::OK();
}

Status BlockIndex::FindFirstAtOrAfter(Timestamp ts,
                                      BlockIndexEntry* out) const {
  std::optional<BlockIndexEntry> first;
  Status s =
      VisitFrom([ts](const BlockIndexKey& k) { return k.ts >= ts; },
                [&first](const BlockIndexEntry& e) {
                  first = e;
                  return false;
                });
  if (!s.ok()) return s;
  if (!first.has_value()) {
    return Status::NotFound("no block at or after the given timestamp");
  }
  *out = *first;
  return Status::OK();
}

Status BlockIndex::BlocksInWindow(Timestamp start, Timestamp end,
                                  Bitmap* out) const {
  *out = Bitmap(num_blocks());
  if (end < start) return Status::OK();
  return VisitFrom([start](const BlockIndexKey& k) { return k.ts >= start; },
                   [out, end](const BlockIndexEntry& e) {
                     if (e.ts > end) return false;
                     out->Set(e.bid);
                     return true;
                   });
}

uint64_t BlockIndex::persisted_end() const {
  uint64_t n = 0;
  for (const SegmentRef& ref : adopted_) n += ref.entries;
  return n;
}

Status BlockIndex::WriteFrozenDelta(BufferManager* pool,
                                    BufferManager::FileId file,
                                    uint64_t up_to, SegmentRef* ref) const {
  const uint64_t from = persisted_end();
  if (up_to > num_blocks() || from < frozen_blocks_) {
    return Status::InvalidArgument("cannot freeze unindexed blocks");
  }
  *ref = SegmentRef{};
  ref->first = from;
  if (up_to <= from) return Status::OK();  // empty delta

  DiskBpTreeBuilder<BlockIndexKey, BlockIndexEntry, BlockIndexCodec,
                    BlockIndexKeyCmp>
      builder(pool, file);
  auto it = tree_.SeekFirstTrue(
      [from](const BlockIndexKey& k) { return k.bid >= from; });
  bool have_first = false;
  for (; it.Valid() && it.key().bid < up_to; it.Next()) {
    if (!have_first) {
      ref->first_key = it.key();
      have_first = true;
    }
    Status s = builder.Add(it.key(), it.value());
    if (!s.ok()) return s;
  }
  DiskTree::Ref built;
  Status s = builder.Finish(&built);
  if (!s.ok()) return s;
  ref->root = built.root;
  ref->entries = built.entries;
  if (built.entries != up_to - from) {
    return Status::Corruption("block index tail is missing entries");
  }
  return Status::OK();
}

void BlockIndex::AdoptFrozen(const SegmentRef& ref) {
  adopted_.push_back(ref);
}

void BlockIndex::EncodeCheckpointState(const SegmentRef* pending,
                                       std::string* dst) const {
  const size_t n = adopted_.size() + (pending != nullptr ? 1 : 0);
  PutVarint32(dst, static_cast<uint32_t>(n));
  auto put_ref = [dst](const SegmentRef& ref) {
    PutVarint32(dst, ref.root);
    PutVarint64(dst, ref.entries);
    PutVarint64(dst, ref.first);
    if (ref.entries > 0) BlockIndexCodec::EncodeKey(dst, ref.first_key);
  };
  for (const SegmentRef& ref : adopted_) put_ref(ref);
  if (pending != nullptr) put_ref(*pending);
  PutVarSigned64(dst, last_ts_);
  PutVarint64(dst, next_tid_);
}

Status BlockIndex::RestoreCheckpoint(BufferManager* pool,
                                     std::vector<BufferManager::FileId> files,
                                     Slice state) {
  if (num_blocks() != 0) {
    return Status::InvalidArgument("restore requires a fresh index");
  }
  Slice in = state;
  uint32_t nsegs;
  if (!GetVarint32(&in, &nsegs) || nsegs != files.size()) {
    return Status::Corruption("block index segment count mismatch");
  }
  uint64_t covered = 0;
  for (uint32_t i = 0; i < nsegs; i++) {
    SegmentRef ref;
    uint32_t root;
    if (!GetVarint32(&in, &root) || !GetVarint64(&in, &ref.entries) ||
        !GetVarint64(&in, &ref.first)) {
      return Status::Corruption("truncated block index segment ref");
    }
    ref.root = root;
    if (ref.entries > 0 && !BlockIndexCodec::DecodeKey(&in, &ref.first_key)) {
      return Status::Corruption("truncated block index segment key");
    }
    if (ref.first != covered) {
      return Status::Corruption("block index segments are not contiguous");
    }
    covered += ref.entries;
    adopted_.push_back(ref);
    if (ref.entries > 0) segments_.push_back({files[i], ref});
  }
  if (!GetVarSigned64(&in, &last_ts_) || !GetVarint64(&in, &next_tid_)) {
    return Status::Corruption("truncated block index cursors");
  }
  pool_ = pool;
  frozen_blocks_ = covered;
  return Status::OK();
}

}  // namespace sebdb
