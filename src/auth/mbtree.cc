#include "auth/mbtree.h"

#include <algorithm>

#include "common/coding.h"

namespace sebdb {

namespace {

constexpr uint8_t kLeafDomain = 0x00;
constexpr uint8_t kInternalDomain = 0x01;

/// A node's hash: its domain byte, then hashes [start, start + count) of the
/// level below (record hashes for a leaf, child hashes for an internal node).
Hash256 HashNode(uint8_t domain, const std::vector<Hash256>& below,
                 size_t start, size_t count) {
  Sha256 ctx;
  ctx.Update(&domain, 1);
  for (size_t i = 0; i < count; i++) {
    ctx.Update(below[start + i].bytes.data(), 32);
  }
  return ctx.Finish();
}

}  // namespace

size_t VerificationObject::ByteSize() const {
  std::string enc;
  EncodeTo(&enc);
  return enc.size();
}

namespace {

void EncodeVoNode(const VerificationObject::Node& node, std::string* dst) {
  dst->push_back(static_cast<char>(node.kind));
  switch (node.kind) {
    case VerificationObject::Kind::kPruned:
      dst->append(reinterpret_cast<const char*>(node.hash.bytes.data()), 32);
      break;
    case VerificationObject::Kind::kLeaf:
      PutVarint32(dst, static_cast<uint32_t>(node.entries.size()));
      for (const auto& entry : node.entries) {
        dst->push_back(entry.full ? 1 : 0);
        if (entry.full) {
          PutLengthPrefixed(dst, entry.record);
        } else {
          dst->append(reinterpret_cast<const char*>(entry.hash.bytes.data()),
                      32);
        }
      }
      break;
    case VerificationObject::Kind::kInternal:
      PutVarint32(dst, static_cast<uint32_t>(node.children.size()));
      for (const auto& child : node.children) EncodeVoNode(child, dst);
      break;
  }
}

bool GetHash(Slice* input, Hash256* out) {
  if (input->size() < 32) return false;
  memcpy(out->bytes.data(), input->data(), 32);
  input->remove_prefix(32);
  return true;
}

Status DecodeVoNode(Slice* input, VerificationObject::Node* out, int depth) {
  if (depth > 64) return Status::Corruption("VO nesting too deep");
  if (input->empty()) return Status::Corruption("truncated VO");
  auto kind = static_cast<VerificationObject::Kind>((*input)[0]);
  input->remove_prefix(1);
  out->kind = kind;
  switch (kind) {
    case VerificationObject::Kind::kPruned:
      if (!GetHash(input, &out->hash)) return Status::Corruption("truncated VO hash");
      return Status::OK();
    case VerificationObject::Kind::kLeaf: {
      uint32_t n;
      if (!GetVarint32(input, &n)) return Status::Corruption("truncated VO leaf");
      out->entries.resize(n);
      for (auto& entry : out->entries) {
        if (input->empty()) return Status::Corruption("truncated VO entry");
        entry.full = (*input)[0] != 0;
        input->remove_prefix(1);
        if (entry.full) {
          Slice record;
          if (!GetLengthPrefixed(input, &record)) {
            return Status::Corruption("truncated VO record");
          }
          entry.record = record.ToString();
        } else if (!GetHash(input, &entry.hash)) {
          return Status::Corruption("truncated VO entry hash");
        }
      }
      return Status::OK();
    }
    case VerificationObject::Kind::kInternal: {
      uint32_t n;
      if (!GetVarint32(input, &n)) return Status::Corruption("truncated VO node");
      out->children.resize(n);
      for (auto& child : out->children) {
        Status s = DecodeVoNode(input, &child, depth + 1);
        if (!s.ok()) return s;
      }
      return Status::OK();
    }
  }
  return Status::Corruption("unknown VO node kind");
}

}  // namespace

void VerificationObject::EncodeTo(std::string* dst) const {
  EncodeVoNode(root, dst);
}

Status VerificationObject::DecodeFrom(Slice* input, VerificationObject* out) {
  return DecodeVoNode(input, &out->root, 0);
}

std::unique_ptr<MbTree> MbTree::Build(
    const std::vector<Entry>& sorted_entries) {
  return Build(sorted_entries, Options());
}

std::unique_ptr<MbTree> MbTree::Build(const std::vector<Entry>& sorted_entries,
                                      const Options& options) {
  auto tree = std::unique_ptr<MbTree>(new MbTree());
  const size_t fanout = std::max<size_t>(2, options.fanout);
  const size_t n = sorted_entries.size();
  tree->fanout_ = fanout;
  tree->positions_.reserve(n);
  tree->record_hashes_.reserve(n);
  for (const Entry& entry : sorted_entries) {
    tree->positions_.push_back(entry.position);
    tree->record_hashes_.push_back(entry.record_hash);
  }

  // One level per pass, leaves first, until a single root remains: node i
  // hashes items [i * fanout, (i + 1) * fanout) of the level below. An empty
  // tree is one empty leaf.
  do {
    const bool leaves = tree->levels_.empty();
    const std::vector<Hash256>& below =
        leaves ? tree->record_hashes_ : tree->levels_.back();
    std::vector<Hash256> level;
    level.reserve(std::max<size_t>(1, (below.size() + fanout - 1) / fanout));
    for (size_t i = 0; i == 0 || i < below.size(); i += fanout) {
      level.push_back(HashNode(leaves ? kLeafDomain : kInternalDomain, below,
                               i, std::min(fanout, below.size() - i)));
    }
    tree->levels_.push_back(std::move(level));
  } while (tree->levels_.back().size() > 1);
  return tree;
}

size_t MbTree::ByteSize() const {
  size_t bytes = sizeof(MbTree) + positions_.capacity() * sizeof(uint32_t) +
                 record_hashes_.capacity() * sizeof(Hash256) +
                 levels_.capacity() * sizeof(std::vector<Hash256>);
  for (const auto& level : levels_) bytes += level.capacity() * sizeof(Hash256);
  return bytes;
}

Status MbTree::Partition(const RecordSource& source, const Value& bound,
                         bool inclusive, size_t from, size_t* out) const {
  size_t lo = from, hi = positions_.size();
  Value key;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    Status s = source.Key(positions_[mid], &key);
    if (!s.ok()) return s;
    const int cmp = key.CompareTotal(bound);
    if (cmp < 0 || (cmp == 0 && !inclusive)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *out = lo;
  return Status::OK();
}

Status MbTree::Locate(const RecordSource& source, const Value* lo,
                      const Value* hi, size_t* begin, size_t* end) const {
  *begin = 0;
  *end = positions_.size();
  Status s;
  if (lo != nullptr) s = Partition(source, *lo, /*inclusive=*/true, 0, begin);
  // Every entry before *begin is below lo, so below hi too (or lo > hi and
  // the range is empty either way): the second search starts there.
  if (s.ok() && hi != nullptr) {
    s = Partition(source, *hi, /*inclusive=*/false, *begin, end);
  }
  return s;
}

Status MbTree::Range(const RecordSource& source, const Value* lo,
                     const Value* hi, std::vector<size_t>* indices) const {
  size_t a, b_end;
  Status s = Locate(source, lo, hi, &a, &b_end);
  if (!s.ok()) return s;
  for (size_t i = a; i < b_end; i++) indices->push_back(i);
  return Status::OK();
}

Status MbTree::ProveNode(const RecordSource& source, size_t level,
                         size_t index, size_t span, size_t expose_start,
                         size_t expose_end,
                         VerificationObject::Node* out) const {
  const size_t n = positions_.size();
  const size_t start = std::min(index * span, n);
  const size_t end = std::min(start + span, n);
  const bool overlaps =
      start < end && start <= expose_end && expose_start < end;
  if (!overlaps && n > 0) {
    out->kind = VerificationObject::Kind::kPruned;
    out->hash = levels_[level][index];
    return Status::OK();
  }
  if (level == 0) {
    out->kind = VerificationObject::Kind::kLeaf;
    out->entries.resize(end - start);
    for (size_t i = start; i < end; i++) {
      VerificationObject::LeafEntry& entry = out->entries[i - start];
      if (i >= expose_start && i <= expose_end) {
        entry.full = true;
        Status s =
            source.Record(positions_[i], record_hashes_[i], &entry.record);
        if (!s.ok()) return s;
      } else {
        entry.hash = record_hashes_[i];
      }
    }
    return Status::OK();
  }
  out->kind = VerificationObject::Kind::kInternal;
  const size_t first = index * fanout_;
  const size_t last = std::min(first + fanout_, levels_[level - 1].size());
  out->children.resize(last - first);
  for (size_t c = first; c < last; c++) {
    Status s = ProveNode(source, level - 1, c, span / fanout_, expose_start,
                         expose_end, &out->children[c - first]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status MbTree::ProveRange(const RecordSource& source, const Value* lo,
                          const Value* hi, VerificationObject* vo) const {
  vo->root = VerificationObject::Node();
  size_t root_span = fanout_;
  for (size_t l = 1; l < levels_.size(); l++) root_span *= fanout_;
  const size_t n = positions_.size();
  if (n == 0) {
    // Whole (empty) tree is the proof of emptiness.
    return ProveNode(source, 0, 0, root_span, 0, 0, &vo->root);
  }
  size_t a, b_end;
  Status s = Locate(source, lo, hi, &a, &b_end);
  if (!s.ok()) return s;
  // Expose the hits plus one boundary entry on each side; an empty result
  // exposes the two entries straddling the gap.
  const size_t expose_start = a > 0 ? a - 1 : 0;
  const size_t expose_end =
      a >= b_end ? std::min(a, n - 1) : std::min(b_end, n - 1);
  return ProveNode(source, levels_.size() - 1, 0, root_span, expose_start,
                   expose_end, &vo->root);
}

void SortedRecordSource::Add(Value key, std::string record) {
  keys_.push_back(std::move(key));
  records_.push_back(std::move(record));
}

std::vector<MbTree::Entry> SortedRecordSource::Entries() const {
  std::vector<MbTree::Entry> entries(records_.size());
  for (size_t i = 0; i < records_.size(); i++) {
    entries[i].position = static_cast<uint32_t>(i);
    entries[i].record_hash = Sha256::Digest(records_[i]);
  }
  return entries;
}

Status SortedRecordSource::Key(uint32_t position, Value* key) const {
  if (position >= keys_.size()) return Status::NotFound("no such record");
  *key = keys_[position];
  return Status::OK();
}

Status SortedRecordSource::Record(uint32_t position, const Hash256& /*leaf*/,
                                  std::string* record) const {
  if (position >= records_.size()) return Status::NotFound("no such record");
  *record = records_[position];
  return Status::OK();
}

namespace {

struct SequenceItem {
  bool full = false;
  Value key;            // when full
  std::string record;   // when full
};

Status RebuildHash(const VerificationObject::Node& node,
                   const RecordKeyFn& key_of,
                   std::vector<SequenceItem>* sequence, Hash256* hash,
                   int depth) {
  if (depth > 64) return Status::VerificationFailed("VO nesting too deep");
  switch (node.kind) {
    case VerificationObject::Kind::kPruned:
      sequence->emplace_back();  // opaque
      *hash = node.hash;
      return Status::OK();
    case VerificationObject::Kind::kLeaf: {
      Sha256 ctx;
      ctx.Update(&kLeafDomain, 1);
      for (const auto& entry : node.entries) {
        Hash256 rh;
        if (entry.full) {
          rh = Sha256::Digest(entry.record);
          SequenceItem item;
          item.full = true;
          Status s = key_of(entry.record, &item.key);
          if (!s.ok()) {
            return Status::VerificationFailed("cannot derive key: " +
                                              s.ToString());
          }
          item.record = entry.record;
          sequence->push_back(std::move(item));
        } else {
          rh = entry.hash;
          sequence->push_back(SequenceItem{});
        }
        ctx.Update(rh.bytes.data(), 32);
      }
      *hash = ctx.Finish();
      return Status::OK();
    }
    case VerificationObject::Kind::kInternal: {
      if (node.children.empty()) {
        return Status::VerificationFailed("internal VO node without children");
      }
      Sha256 ctx;
      ctx.Update(&kInternalDomain, 1);
      for (const auto& child : node.children) {
        Hash256 child_hash;
        Status s = RebuildHash(child, key_of, sequence, &child_hash, depth + 1);
        if (!s.ok()) return s;
        ctx.Update(child_hash.bytes.data(), 32);
      }
      *hash = ctx.Finish();
      return Status::OK();
    }
  }
  return Status::VerificationFailed("unknown VO node kind");
}

}  // namespace

Status MbTree::VerifyRange(const Hash256& trusted_root,
                           const VerificationObject& vo, const Value* lo,
                           const Value* hi, const RecordKeyFn& key_of,
                           std::vector<std::string>* records) {
  Hash256 root;
  Status s = ReconstructRoot(vo, lo, hi, key_of, records, &root);
  if (!s.ok()) return s;
  if (root != trusted_root) {
    return Status::VerificationFailed("VO root hash mismatch");
  }
  return Status::OK();
}

Status MbTree::ReconstructRoot(const VerificationObject& vo, const Value* lo,
                               const Value* hi, const RecordKeyFn& key_of,
                               std::vector<std::string>* records,
                               Hash256* root) {
  std::vector<SequenceItem> sequence;
  Status s = RebuildHash(vo.root, key_of, &sequence, root, 0);
  if (!s.ok()) return s;

  // Keys of full records must be non-decreasing.
  const Value* prev = nullptr;
  for (const auto& item : sequence) {
    if (!item.full) continue;
    if (prev != nullptr && prev->CompareTotal(item.key) > 0) {
      return Status::VerificationFailed("VO records out of order");
    }
    prev = &item.key;
  }

  // Completeness: no opaque item may be able to hide an in-range key. An
  // opaque item's keys are bounded by its nearest full neighbours; it is
  // safe only if its upper neighbour is strictly below lo or its lower
  // neighbour strictly above hi. Two linear passes find every opaque item's
  // neighbours, so a VO of N items costs O(N) however it is shaped.
  std::vector<const Value*> next_full(sequence.size(), nullptr);
  const Value* after = nullptr;  // nearest full key after
  for (size_t i = sequence.size(); i-- > 0;) {
    next_full[i] = after;
    if (sequence[i].full) after = &sequence[i].key;
  }
  const Value* before = nullptr;  // nearest full key before
  for (size_t i = 0; i < sequence.size(); i++) {
    if (sequence[i].full) {
      before = &sequence[i].key;
      continue;
    }
    const Value* k2 = next_full[i];
    bool safe_low = lo != nullptr && k2 != nullptr && k2->CompareTotal(*lo) < 0;
    bool safe_high =
        hi != nullptr && before != nullptr && before->CompareTotal(*hi) > 0;
    if (!safe_low && !safe_high) {
      return Status::VerificationFailed(
          "VO incomplete: pruned region may hide results");
    }
  }

  records->clear();
  for (auto& item : sequence) {
    if (!item.full) continue;
    bool ge_lo = lo == nullptr || item.key.CompareTotal(*lo) >= 0;
    bool le_hi = hi == nullptr || item.key.CompareTotal(*hi) <= 0;
    if (ge_lo && le_hi) records->push_back(std::move(item.record));
  }
  return Status::OK();
}

}  // namespace sebdb
