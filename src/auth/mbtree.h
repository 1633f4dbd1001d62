// Merkle B-tree (paper §VI, after Li et al. SIGMOD'06): a B+-tree whose
// leaves hash the records they hold and whose internal nodes hash the
// concatenation of their children's hashes. A range query produces a
// verification object (VO) from which an untrusting client recomputes the
// root hash and checks both soundness (every returned record hashes into the
// root) and completeness (boundary records prove nothing in the range was
// withheld).
//
// Our MB-trees are immutable: one per block, bulk-loaded when the block is
// chained (the ALI's second level), so no insert/rebalance machinery exists.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "common/slice.h"
#include "common/status.h"
#include "types/value.h"

namespace sebdb {

/// Pruned-tree verification object for one MB-tree range query.
struct VerificationObject {
  enum class Kind : uint8_t {
    kPruned = 0,    // subtree outside the exposed range: hash only
    kLeaf = 1,      // expanded leaf: per-entry record or record hash
    kInternal = 2,  // expanded internal node: child VOs
  };

  struct LeafEntry {
    bool full = false;    // full record included (result or boundary)
    Hash256 hash;         // record hash when !full
    std::string record;   // record bytes when full
  };

  struct Node {
    Kind kind = Kind::kPruned;
    Hash256 hash;                  // kPruned
    std::vector<LeafEntry> entries;  // kLeaf
    std::vector<Node> children;    // kInternal
  };

  Node root;

  /// Serialized size — the paper's "VO size" metric (Fig. 17).
  size_t ByteSize() const;
  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, VerificationObject* out);
};

/// Extracts the index key from a record's bytes (the client re-derives keys
/// from returned records during verification).
using RecordKeyFn = std::function<Status(const Slice& record, Value* key)>;

/// An MB-tree holds, per entry in key order, only its record's SHA-256 and
/// the record's position in a record source, plus its node hashes. Keys and
/// record bytes stay where the records live (for the ALI: the block) and are
/// read from there when a range is proved: the keys a binary search probes
/// and the records the VO exposes.
class MbTree {
 public:
  struct Options {
    /// Max entries per leaf / children per internal node. The paper uses
    /// 4 KB pages with ~300 B transactions, i.e. roughly this many.
    size_t fanout = 16;
  };

  /// Where a tree's keys and records live, addressed by position.
  class RecordSource {
   public:
    /// The index key of the record at `position`.
    virtual Status Key(uint32_t position, Value* key) const = 0;
    /// Sets *record to the bytes of the record at `position`, whose hash in
    /// the tree is `leaf`. A source that reads its bytes unauthenticated
    /// checks them against `leaf`, so a prove never serves a record the
    /// tree does not hold.
    virtual Status Record(uint32_t position, const Hash256& leaf,
                          std::string* record) const = 0;

   protected:
    ~RecordSource() = default;
  };

  struct Entry {
    uint32_t position = 0;  // the record's position in its RecordSource
    Hash256 record_hash;    // SHA-256 of the record's bytes
  };

  /// Builds the tree from entries sorted by their records' keys (duplicates
  /// allowed).
  static std::unique_ptr<MbTree> Build(const std::vector<Entry>& sorted_entries,
                                       const Options& options);
  static std::unique_ptr<MbTree> Build(
      const std::vector<Entry>& sorted_entries);

  const Hash256& root_hash() const { return levels_.back().front(); }
  size_t size() const { return positions_.size(); }
  int height() const { return static_cast<int>(levels_.size()); }

  /// Every byte this tree holds: hashes, positions and the object and
  /// vector headers. The ALI charges its rebuild LRU exactly this.
  size_t ByteSize() const;

  /// Plain (unauthenticated) range lookup; appends entry indices.
  Status Range(const RecordSource& source, const Value* lo, const Value* hi,
               std::vector<size_t>* indices) const;

  /// Builds the VO for range [lo, hi] (null = unbounded): result records plus
  /// one boundary record on each side, everything else pruned to hashes.
  /// `source` must hold the records the tree was built from.
  Status ProveRange(const RecordSource& source, const Value* lo,
                    const Value* hi, VerificationObject* vo) const;

  /// Client-side check. Recomputes the root from `vo`, compares with
  /// `trusted_root`, verifies ordering/contiguity/boundaries, and on success
  /// fills *records with exactly the in-range records.
  static Status VerifyRange(const Hash256& trusted_root,
                            const VerificationObject& vo, const Value* lo,
                            const Value* hi, const RecordKeyFn& key_of,
                            std::vector<std::string>* records);

  /// Like VerifyRange but returns the reconstructed root instead of comparing
  /// it — the two-phase protocol checks roots in aggregate, via the digest
  /// from auxiliary nodes (paper §VI).
  static Status ReconstructRoot(const VerificationObject& vo, const Value* lo,
                                const Value* hi, const RecordKeyFn& key_of,
                                std::vector<std::string>* records,
                                Hash256* root);

 private:
  MbTree() = default;

  /// Entry indices [*begin, *end) whose keys lie in [lo, hi].
  Status Locate(const RecordSource& source, const Value* lo, const Value* hi,
                size_t* begin, size_t* end) const;
  /// First entry index at or after `from` whose key is above `bound`
  /// (`inclusive`: not below); every entry before `from` must be below it.
  Status Partition(const RecordSource& source, const Value& bound,
                   bool inclusive, size_t from, size_t* out) const;
  /// VO of node `index` at `level` (0 = leaves), covering `span` entries per
  /// node, with entries [expose_start, expose_end] as full records.
  Status ProveNode(const RecordSource& source, size_t level, size_t index,
                   size_t span, size_t expose_start, size_t expose_end,
                   VerificationObject::Node* out) const;

  std::vector<uint32_t> positions_;
  std::vector<Hash256> record_hashes_;
  /// Node hashes by level: levels_[0] are the leaves, levels_.back() holds
  /// only the root. Node i of a level covers its level below's children
  /// [i * fanout, (i + 1) * fanout).
  std::vector<std::vector<Hash256>> levels_;
  size_t fanout_ = 0;
};

/// A record source over in-memory records added in key order (position =
/// order of addition): how the tree is used outside an ALI, e.g. by tests
/// and benchmarks.
class SortedRecordSource final : public MbTree::RecordSource {
 public:
  /// Appends one record; keys must not decrease.
  void Add(Value key, std::string record);
  /// The tree entries over every record added so far.
  std::vector<MbTree::Entry> Entries() const;

  Status Key(uint32_t position, Value* key) const override;
  Status Record(uint32_t position, const Hash256& leaf,
                std::string* record) const override;

 private:
  std::vector<Value> keys_;
  std::vector<std::string> records_;
};

}  // namespace sebdb
