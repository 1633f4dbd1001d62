// On-chain join (paper Algorithm 2) and on-off-chain join (Algorithm 3),
// each in the three strategies the evaluation compares: hash join over a
// full scan, hash join over bitmap-filtered blocks, and layered-index
// sort-merge over block pairs that may produce results.
#include <algorithm>
#include <optional>
#include <set>
#include <type_traits>
#include <unordered_map>

#include "sql/executor.h"
#include "sql/executor_internal.h"

namespace sebdb {

using sql_internal::OffchainColumnNames;
using sql_internal::RowFilter;
using sql_internal::Rows;
using sql_internal::SchemaColumnNames;

namespace {

/// Value range covered by one set bucket: (lo, hi], open at the extremes.
struct ValueRange {
  std::optional<Value> lo;  // exclusive
  std::optional<Value> hi;  // inclusive
};

std::vector<ValueRange> BucketRangesOf(const LayeredIndex& index,
                                       BlockId bid) {
  std::vector<ValueRange> out;
  const Bitmap* buckets = index.BlockBuckets(bid);
  if (buckets == nullptr) return out;
  const auto& boundaries = index.histogram().boundaries();
  for (size_t b : buckets->SetBits()) {
    ValueRange range;
    if (b > 0) range.lo = boundaries[b - 1];
    if (b < boundaries.size()) range.hi = boundaries[b];
    out.push_back(std::move(range));
  }
  return out;
}

bool RangesOverlap(const ValueRange& a, const ValueRange& b) {
  // a = (a.lo, a.hi], b = (b.lo, b.hi]: disjoint iff one ends at or before
  // the other begins.
  if (a.hi.has_value() && b.lo.has_value() &&
      a.hi->CompareTotal(*b.lo) <= 0) {
    return false;
  }
  if (b.hi.has_value() && a.lo.has_value() &&
      b.hi->CompareTotal(*a.lo) <= 0) {
    return false;
  }
  return true;
}

// intersect(b_r, b_s) for continuous join attributes (paper Alg. 2).
bool BlocksIntersectContinuous(const LayeredIndex& ir, BlockId br,
                               const LayeredIndex& is, BlockId bs) {
  std::vector<ValueRange> ar = BucketRangesOf(ir, br);
  std::vector<ValueRange> as = BucketRangesOf(is, bs);
  size_t i = 0, j = 0;
  while (i < ar.size() && j < as.size()) {
    if (RangesOverlap(ar[i], as[j])) return true;
    bool a_ends_first;
    if (!ar[i].hi.has_value()) a_ends_first = false;
    else if (!as[j].hi.has_value()) a_ends_first = true;
    else a_ends_first = ar[i].hi->CompareTotal(*as[j].hi) <= 0;
    if (a_ends_first) i++;
    else j++;
  }
  return false;
}

// intersect(b_r, (lo, hi)) for the on-off join (paper Alg. 3).
bool BlockIntersectsRange(const LayeredIndex& index, BlockId bid,
                          const Value& lo, const Value& hi) {
  if (index.options().discrete) {
    for (const auto& [value, blocks] : index.discrete_values()) {
      if (value.CompareTotal(lo) >= 0 && value.CompareTotal(hi) <= 0 &&
          blocks.Test(bid)) {
        return true;
      }
    }
    return false;
  }
  ValueRange query;
  query.lo = lo;  // conservative exclusive-lo; the bucket holding lo is
  query.hi = hi;  // re-checked below
  for (const auto& range : BucketRangesOf(index, bid)) {
    if (RangesOverlap(range, query)) return true;
  }
  const Bitmap* buckets = index.BlockBuckets(bid);
  return buckets != nullptr &&
         buckets->Test(index.histogram().BucketOf(lo));
}

/// The hash side of both hash joins. A comparison with NULL is not true
/// (eval.cc), so a NULL key is neither stored nor found: it never joins, not
/// even with another NULL.
template <typename T>
class JoinHashTable {
  struct Hash {
    size_t operator()(const Value& v) const { return v.HashCode(); }
  };
  struct Eq {
    bool operator()(const Value& a, const Value& b) const {
      return a.CompareTotal(b) == 0;
    }
  };

 public:
  using Map = std::unordered_multimap<Value, T, Hash, Eq>;

  void Insert(Value key, T value) {
    if (!key.is_null()) map_.emplace(std::move(key), std::move(value));
  }
  std::pair<typename Map::const_iterator, typename Map::const_iterator> Find(
      const Value& key) const {
    if (key.is_null()) return {map_.end(), map_.end()};
    return map_.equal_range(key);
  }

 private:
  Map map_;
};

/// Off-chain rows sorted on the join column, walked like a second-level
/// tree iterator; value() is the row's index.
struct SortedRowsCursor {
  const std::vector<OffchainRow>& rows;
  int column;
  size_t i = 0;

  bool Valid() const { return i < rows.size(); }
  const Value& key() const { return rows[i][column]; }
  size_t value() const { return i; }
  void Next() { i++; }
};

/// The sort-merge of both layered-merge joins: walks two key-ordered
/// cursors and calls on_run(left_values, right_values) once per non-NULL
/// key that both hold, with every entry of that key on each side (their
/// cross product is the join's output for the key).
template <typename Left, typename Right, typename OnRun>
Status MergeEqualKeyRuns(Left left, Right right, const OnRun& on_run) {
  std::vector<std::decay_t<decltype(left.value())>> left_run;
  std::vector<std::decay_t<decltype(right.value())>> right_run;
  while (left.Valid() && right.Valid()) {
    const int cmp = left.key().CompareTotal(right.key());
    if (cmp < 0) {
      left.Next();
      continue;
    }
    if (cmp > 0) {
      right.Next();
      continue;
    }
    const Value key = left.key();
    left_run.clear();
    right_run.clear();
    for (; left.Valid() && left.key().CompareTotal(key) == 0; left.Next()) {
      left_run.push_back(left.value());
    }
    for (; right.Valid() && right.key().CompareTotal(key) == 0;
         right.Next()) {
      right_run.push_back(right.value());
    }
    if (key.is_null()) continue;  // NULL equals only NULL in CompareTotal
    Status s = on_run(left_run, right_run);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

const char* StrategyName(JoinStrategy strategy) {
  switch (strategy) {
    case JoinStrategy::kScanHash:
      return "scan-hash";
    case JoinStrategy::kBitmapHash:
      return "bitmap-hash";
    case JoinStrategy::kLayeredMerge:
      return "layered-merge";
    default:
      return "auto";
  }
}

// Resolves which side of the join condition belongs to which table; fails
// when a reference matches neither table.
Status SplitJoinColumns(const JoinCondition& join, const std::string& left,
                        const std::string& right, std::string* left_col,
                        std::string* right_col) {
  auto side_of = [&](const ColumnRef& ref) -> int {
    if (!ref.table.empty()) {
      if (ref.table == left) return 0;
      if (ref.table == right) return 1;
      return -1;
    }
    return -2;  // unqualified: resolved by position below
  };
  int a = side_of(join.left);
  int b = side_of(join.right);
  if (a == -2 && b == -2) {
    // Both unqualified: first refers to left table, second to right.
    *left_col = join.left.column;
    *right_col = join.right.column;
    return Status::OK();
  }
  if (a == 0 || b == 1) {
    *left_col = (a == 0 ? join.left : join.right).column;
    *right_col = (a == 0 ? join.right : join.left).column;
    if (a == 0 && b != 1 && b != -2) {
      return Status::InvalidArgument("join condition references unknown table");
    }
    return Status::OK();
  }
  if (a == 1 || b == 0) {  // condition written right-to-left
    *left_col = (b == 0 ? join.right : join.left).column;
    *right_col = (b == 0 ? join.left : join.right).column;
    return Status::OK();
  }
  return Status::InvalidArgument("join condition references unknown table");
}

std::vector<Value> ConcatRows(const std::vector<Value>& a,
                              const std::vector<Value>& b) {
  std::vector<Value> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

Status Executor::ExecOnChainJoin(const SelectStmt& stmt,
                                 const ExecOptions& options,
                                 bool explain_only, ResultSet* result) {
  const std::string& left = stmt.tables[0].name;
  const std::string& right = stmt.tables[1].name;
  Schema left_schema, right_schema;
  Status s = catalog_->GetSchema(left, &left_schema);
  if (!s.ok()) return s;
  s = catalog_->GetSchema(right, &right_schema);
  if (!s.ok()) return s;

  std::string left_col, right_col;
  s = SplitJoinColumns(*stmt.join, left, right, &left_col, &right_col);
  if (!s.ok()) return s;
  int left_idx = left_schema.ColumnIndex(left_col);
  int right_idx = right_schema.ColumnIndex(right_col);
  if (left_idx < 0 || right_idx < 0) {
    return Status::NotFound("join column not found");
  }

  ColumnBindings bindings;
  bindings.AddTable(left, SchemaColumnNames(left_schema));
  bindings.AddTable(right, SchemaColumnNames(right_schema));
  result->columns = bindings.qualified_names();

  std::optional<Bitmap> window;
  s = ResolveWindow(stmt.window, options.params, &window);
  if (!s.ok()) return s;

  LayeredIndex* left_index = indexes_->GetLayered(left, left_col);
  LayeredIndex* right_index = indexes_->GetLayered(right, right_col);
  JoinStrategy strategy = options.join_strategy;
  if (strategy == JoinStrategy::kAuto) {
    strategy = (left_index != nullptr && right_index != nullptr)
                   ? JoinStrategy::kLayeredMerge
                   : JoinStrategy::kBitmapHash;
  }
  if (strategy == JoinStrategy::kLayeredMerge &&
      (left_index == nullptr || right_index == nullptr)) {
    return Status::InvalidArgument(
        "layered-merge join needs layered indices on both join columns");
  }

  result->plan = "OnChainJoin(" + left + "." + left_col + " = " + right +
                 "." + right_col + ") strategy=" + StrategyName(strategy);
  if (window.has_value()) result->plan += " window";
  if (explain_only) return Status::OK();

  const RowFilter filter{stmt.where.get(), bindings, options.params};
  const int left_columns = left_schema.num_columns();
  const int right_columns = right_schema.num_columns();

  if (strategy == JoinStrategy::kScanHash ||
      strategy == JoinStrategy::kBitmapHash) {
    std::optional<Bitmap> first_level;
    if (strategy == JoinStrategy::kBitmapHash) {
      first_level = indexes_->table_index().BlocksWithTable(left);
      first_level->Or(indexes_->table_index().BlocksWithTable(right));
    }

    // One pass over the candidate blocks partitions both inputs; then a
    // hash table on the right input is probed with the left. The partition
    // phase (read + decode + row materialization) fans out per block; the
    // per-block partitions are merged serially in block order so the hash
    // table's insertion order — and hence equal_range iteration order —
    // matches the serial pass exactly.
    struct Partition {
      std::vector<std::pair<Value, std::vector<Value>>> left, right;
    };
    std::vector<Partition> parts;
    s = Fetch(CandidateBlocks(std::move(first_level), window), Locate(),
              [&](const Transaction& txn, Partition* out) -> Status {
                if (txn.tname() == left) {
                  out->left.emplace_back(txn.GetColumn(left_idx),
                                         TxnToRow(txn, left_columns));
                }
                if (txn.tname() == right) {
                  out->right.emplace_back(txn.GetColumn(right_idx),
                                          TxnToRow(txn, right_columns));
                }
                return Status::OK();
              },
              &parts);
    if (!s.ok()) return s;

    JoinHashTable<std::vector<Value>> right_rows;
    std::vector<std::pair<Value, std::vector<Value>>> left_rows;
    for (auto& part : parts) {
      for (auto& [key, lrow] : part.left) {
        left_rows.emplace_back(std::move(key), std::move(lrow));
      }
      for (auto& [key, rrow] : part.right) {
        right_rows.Insert(std::move(key), std::move(rrow));
      }
    }
    for (const auto& [key, lrow] : left_rows) {
      auto [begin, end] = right_rows.Find(key);
      for (auto it = begin; it != end; ++it) {
        s = filter.Emit(ConcatRows(lrow, it->second), &result->rows);
        if (!s.ok()) return s;
      }
    }
    return Project(stmt, bindings, result);
  }

  // Layered-merge (Algorithm 2): pair up candidate blocks of the two
  // indices, skip pairs whose first-level entries cannot intersect, and
  // sort-merge the second-level trees of the surviving pairs.
  const Bitmap left_blocks =
      CandidateBlocks(left_index->BlocksWithEntries(), window);
  const Bitmap right_blocks =
      CandidateBlocks(right_index->BlocksWithEntries(), window);
  bool discrete =
      left_index->options().discrete || right_index->options().discrete;
  if (left_index->options().discrete != right_index->options().discrete) {
    return Status::InvalidArgument(
        "join columns must both be discrete or both continuous");
  }

  // Enumerate block pairs that may produce join results. For a discrete
  // attribute, walk the value -> blocks maps directly (a pair qualifies iff
  // some value occurs in both blocks) — equivalent to the paper's per-pair
  // intersect() but linear in the number of values rather than quadratic in
  // blocks. For a continuous attribute, test bucket-range overlap per pair.
  std::vector<std::pair<size_t, size_t>> pairs;
  if (discrete) {
    std::set<std::pair<size_t, size_t>> pair_set;
    for (const auto& [value, lblocks] : left_index->discrete_values()) {
      Bitmap lb = lblocks;
      lb.And(left_blocks);
      if (!lb.AnySet()) continue;
      Bitmap rb = right_index->BlocksWithValue(value);
      rb.And(right_blocks);
      if (!rb.AnySet()) continue;
      for (size_t br : lb.SetBits()) {
        for (size_t bs : rb.SetBits()) pair_set.insert({br, bs});
      }
    }
    pairs.assign(pair_set.begin(), pair_set.end());
  } else {
    for (size_t br : left_blocks.SetBits()) {
      for (size_t bs : right_blocks.SetBits()) {
        if (BlocksIntersectContinuous(*left_index, br, *right_index, bs)) {
          pairs.emplace_back(br, bs);
        }
      }
    }
  }

  // Each surviving pair sort-merges its two blocks' second-level trees
  // (leaves are in attribute order) and reads only the matching rows.
  auto to_row = [](int num_columns) {
    return [num_columns](const Transaction& txn, Rows* out) -> Status {
      out->push_back(TxnToRow(txn, num_columns));
      return Status::OK();
    };
  };
  s = FanOutRows(
      pairs.size(),
      [&](size_t i, Rows* out) -> Status {
        const auto [br, bs] = pairs[i];
        std::shared_ptr<const LayeredIndex::SecondLevelTree> ltree, rtree;
        Status ts = left_index->Tree(br, &ltree);
        if (ts.ok()) ts = right_index->Tree(bs, &rtree);
        if (!ts.ok()) return ts;
        if (ltree == nullptr || rtree == nullptr) return Status::OK();
        return MergeEqualKeyRuns(
            ltree->Begin(), rtree->Begin(),
            [&](const std::vector<uint32_t>& lpos,
                const std::vector<uint32_t>& rpos) -> Status {
              Rows lrows, rrows;
              Status rs = ReadTxns(br, &lpos, to_row(left_columns), &lrows);
              if (rs.ok()) {
                rs = ReadTxns(bs, &rpos, to_row(right_columns), &rrows);
              }
              for (size_t l = 0; rs.ok() && l < lrows.size(); l++) {
                for (size_t r = 0; rs.ok() && r < rrows.size(); r++) {
                  rs = filter.Emit(ConcatRows(lrows[l], rrows[r]), out);
                }
              }
              return rs;
            });
      },
      &result->rows);
  if (!s.ok()) return s;
  return Project(stmt, bindings, result);
}

Status Executor::ExecOnOffJoin(const SelectStmt& stmt,
                               const ExecOptions& options, bool explain_only,
                               ResultSet* result) {
  if (offchain_ == nullptr) {
    return Status::InvalidArgument("no off-chain connector configured");
  }
  // Normalize: r = on-chain side, s = off-chain side; remember the original
  // column order for output.
  bool left_is_off = stmt.tables[0].offchain;
  const TableRef& on_ref = left_is_off ? stmt.tables[1] : stmt.tables[0];
  const TableRef& off_ref = left_is_off ? stmt.tables[0] : stmt.tables[1];

  Schema on_schema;
  Status s = catalog_->GetSchema(on_ref.name, &on_schema);
  if (!s.ok()) return s;
  std::vector<ColumnDef> off_columns;
  s = offchain_->TableColumns(off_ref.name, &off_columns);
  if (!s.ok()) return s;

  std::string first_col, second_col;
  s = SplitJoinColumns(*stmt.join, stmt.tables[0].name, stmt.tables[1].name,
                       &first_col, &second_col);
  if (!s.ok()) return s;
  const std::string& on_col = left_is_off ? second_col : first_col;
  const std::string& off_col = left_is_off ? first_col : second_col;

  int on_idx = on_schema.ColumnIndex(on_col);
  if (on_idx < 0) {
    return Status::NotFound("join column " + on_col + " not in " +
                            on_ref.name);
  }
  int off_idx = -1;
  for (size_t i = 0; i < off_columns.size(); i++) {
    if (off_columns[i].name == off_col) off_idx = static_cast<int>(i);
  }
  if (off_idx < 0) {
    return Status::NotFound("join column " + off_col + " not in " +
                            off_ref.name);
  }

  // Output binding order follows the statement's table order.
  ColumnBindings bindings;
  if (left_is_off) {
    bindings.AddTable(off_ref.name, OffchainColumnNames(off_columns));
    bindings.AddTable(on_ref.name, SchemaColumnNames(on_schema));
  } else {
    bindings.AddTable(on_ref.name, SchemaColumnNames(on_schema));
    bindings.AddTable(off_ref.name, OffchainColumnNames(off_columns));
  }
  result->columns = bindings.qualified_names();

  std::optional<Bitmap> window;
  s = ResolveWindow(stmt.window, options.params, &window);
  if (!s.ok()) return s;

  LayeredIndex* on_index = indexes_->GetLayered(on_ref.name, on_col);
  JoinStrategy strategy = options.join_strategy;
  if (strategy == JoinStrategy::kAuto) {
    strategy = on_index != nullptr ? JoinStrategy::kLayeredMerge
                                   : JoinStrategy::kBitmapHash;
  }
  if (strategy == JoinStrategy::kLayeredMerge && on_index == nullptr) {
    return Status::InvalidArgument(
        "layered-merge on-off join needs a layered index on the on-chain "
        "join column");
  }

  result->plan = "OnOffJoin(onchain." + on_ref.name + "." + on_col +
                 " = offchain." + off_ref.name + "." + off_col +
                 ") strategy=" + StrategyName(strategy);
  if (window.has_value()) result->plan += " window";
  if (explain_only) return Status::OK();

  const RowFilter filter{stmt.where.get(), bindings, options.params};
  auto emit = [&](const std::vector<Value>& on_row,
                  const std::vector<Value>& off_row, Rows* out) -> Status {
    return filter.Emit(left_is_off ? ConcatRows(off_row, on_row)
                                   : ConcatRows(on_row, off_row),
                       out);
  };
  const int on_columns = on_schema.num_columns();

  if (strategy == JoinStrategy::kScanHash ||
      strategy == JoinStrategy::kBitmapHash) {
    // Fetch the whole off-chain table once and build a hash table on the
    // join attribute; candidate blocks are then read and probed in parallel
    // (the hash table is read-only during the probe phase).
    std::vector<OffchainRow> off_rows;
    s = offchain_->FetchAll(off_ref.name, &off_rows);
    if (!s.ok()) return s;
    JoinHashTable<const OffchainRow*> hash;
    for (const auto& row : off_rows) hash.Insert(row[off_idx], &row);

    std::optional<Bitmap> first_level;
    if (strategy == JoinStrategy::kBitmapHash) {
      first_level = indexes_->table_index().BlocksWithTable(on_ref.name);
    }
    s = FetchRows(CandidateBlocks(std::move(first_level), window), Locate(),
                  [&](const Transaction& txn, Rows* out) -> Status {
                    if (txn.tname() != on_ref.name) return Status::OK();
                    auto [begin, end] = hash.Find(txn.GetColumn(on_idx));
                    if (begin == end) return Status::OK();
                    const std::vector<Value> on_row =
                        TxnToRow(txn, on_columns);
                    for (auto it = begin; it != end; ++it) {
                      Status es = emit(on_row, *it->second, out);
                      if (!es.ok()) return es;
                    }
                    return Status::OK();
                  },
                  &result->rows);
    if (!s.ok()) return s;
    return Project(stmt, bindings, result);
  }

  // Layered-merge (Algorithm 3): off-chain rows sorted on the join
  // attribute; filter blocks by (s_min, s_max) — or the distinct values for
  // a discrete attribute — then sort-merge each surviving block against the
  // sorted off-chain rows using the second-level index.
  std::vector<OffchainRow> off_sorted;
  s = offchain_->FetchSortedBy(off_ref.name, off_col, &off_sorted);
  if (!s.ok()) return s;
  if (off_sorted.empty()) return Project(stmt, bindings, result);

  Bitmap first_level(store_->num_blocks());
  if (on_index->options().discrete) {
    std::vector<Value> distinct;
    s = offchain_->Distinct(off_ref.name, off_col, &distinct);
    if (!s.ok()) return s;
    for (const auto& v : distinct) {
      first_level.Or(on_index->BlocksWithValue(v));
    }
  } else {
    Value smin, smax;
    s = offchain_->MinMax(off_ref.name, off_col, &smin, &smax);
    if (!s.ok()) return s;
    for (size_t bid : on_index->BlocksWithEntries().SetBits()) {
      if (BlockIntersectsRange(*on_index, bid, smin, smax)) {
        first_level.Set(bid);
      }
    }
  }

  // Each candidate block merges independently against the shared sorted
  // off-chain rows (read-only) and reads only its matching rows.
  const std::vector<size_t> blocks =
      CandidateBlocks(std::move(first_level), window).SetBits();
  s = FanOutRows(
      blocks.size(),
      [&](size_t i, Rows* out) -> Status {
        const size_t bid = blocks[i];
        std::shared_ptr<const LayeredIndex::SecondLevelTree> tree;
        Status ts = on_index->Tree(bid, &tree);
        if (!ts.ok()) return ts;
        if (tree == nullptr || !tree->Begin().Valid()) return Status::OK();
        // Off-chain rows below the block's smallest key cannot match: the
        // walk starts at that key, not at row 0, so a block costs a binary
        // search plus its own merge rather than a pass over every row.
        const Value& first_key = tree->Begin().key();
        const size_t start =
            std::lower_bound(off_sorted.begin(), off_sorted.end(), first_key,
                             [&](const OffchainRow& row, const Value& key) {
                               return row[off_idx].CompareTotal(key) < 0;
                             }) -
            off_sorted.begin();
        return MergeEqualKeyRuns(
            tree->Begin(), SortedRowsCursor{off_sorted, off_idx, start},
            [&](const std::vector<uint32_t>& on_pos,
                const std::vector<size_t>& off_run) -> Status {
              return ReadTxns(
                  bid, &on_pos,
                  [&](const Transaction& txn, Rows* rows) -> Status {
                    const std::vector<Value> on_row =
                        TxnToRow(txn, on_columns);
                    for (size_t j : off_run) {
                      Status es = emit(on_row, off_sorted[j], rows);
                      if (!es.ok()) return es;
                    }
                    return Status::OK();
                  },
                  out);
            });
      },
      &result->rows);
  if (!s.ok()) return s;
  return Project(stmt, bindings, result);
}

}  // namespace sebdb
