// Shared between executor.cc and executor_join.cc: the fetch stage's
// templates, the WHERE filter and column naming. Internal to the sql module.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "offchain/offchain_db.h"
#include "sql/executor.h"
#include "types/schema.h"
#include "types/value.h"

namespace sebdb {
namespace sql_internal {

using Rows = std::vector<std::vector<Value>>;

inline std::vector<std::string> SchemaColumnNames(const Schema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.num_columns());
  for (const auto& col : schema.columns()) names.push_back(col.name);
  return names;
}

inline std::vector<std::string> OffchainColumnNames(
    const std::vector<ColumnDef>& columns) {
  std::vector<std::string> names;
  names.reserve(columns.size());
  for (const auto& col : columns) names.push_back(col.name);
  return names;
}

/// The WHERE filter every statement shares: appends `row` to `out` when the
/// statement's predicate holds for it (always, without a predicate).
struct RowFilter {
  const Expr* where;
  const ColumnBindings& bindings;
  const std::vector<Value>& params;

  Status Emit(std::vector<Value> row, Rows* out) const {
    bool ok = true;
    if (where != nullptr) {
      Status s = EvalPredicate(*where, bindings, row, params, &ok);
      if (!s.ok()) return s;
    }
    if (ok) out->push_back(std::move(row));
    return Status::OK();
  }
};

/// Joins per-unit row buffers in unit order.
inline void AppendRows(std::vector<Rows>* buffers, Rows* rows) {
  for (Rows& buffer : *buffers) {
    for (auto& row : buffer) rows->push_back(std::move(row));
  }
}

}  // namespace sql_internal

// --- Fetch stage (declared in executor.h) ---------------------------------

template <typename Buffer, typename Work>
Status Executor::FanOut(size_t units, const Work& work,
                        std::vector<Buffer>* buffers) const {
  buffers->clear();
  buffers->resize(units);
  // A nullptr pool runs the exact serial loop, with its early exit; with a
  // pool, the smallest failing unit's status wins, as in the serial loop.
  return ParallelForStatus(pool_, units, [&](uint64_t i) -> Status {
    return work(static_cast<size_t>(i), &(*buffers)[i]);
  });
}

template <typename Work>
Status Executor::FanOutRows(size_t units, const Work& work, Rows* rows) const {
  std::vector<Rows> buffers;
  Status s = FanOut(units, work, &buffers);
  if (s.ok()) sql_internal::AppendRows(&buffers, rows);
  return s;
}

template <typename Buffer, typename OnTxn>
Status Executor::ReadTxns(size_t block, const std::vector<uint32_t>* positions,
                          const OnTxn& on_txn, Buffer* out) const {
  if (positions == nullptr) {
    std::shared_ptr<const Block> whole;
    Status s = store_->ReadBlock(block, &whole);
    if (!s.ok()) return s;
    for (const Transaction& txn : whole->transactions()) {
      s = on_txn(txn, out);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }
  for (uint32_t position : *positions) {
    std::shared_ptr<const Transaction> txn;
    Status s = store_->ReadTransaction(block, position, &txn);
    if (!s.ok()) return s;
    s = on_txn(*txn, out);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

template <typename Buffer, typename OnTxn>
Status Executor::Fetch(const Bitmap& candidates, const Locate& locate,
                       const OnTxn& on_txn,
                       std::vector<Buffer>* buffers) const {
  const std::vector<size_t> blocks = candidates.SetBits();
  return FanOut(
      blocks.size(),
      [&](size_t i, Buffer* out) -> Status {
        if (!locate) return ReadTxns(blocks[i], nullptr, on_txn, out);
        std::vector<uint32_t> positions;
        Status s = locate(blocks[i], &positions);
        if (!s.ok()) return s;
        return ReadTxns(blocks[i], &positions, on_txn, out);
      },
      buffers);
}

template <typename OnTxn>
Status Executor::FetchRows(const Bitmap& candidates, const Locate& locate,
                           const OnTxn& on_txn, Rows* rows) const {
  std::vector<Rows> buffers;
  Status s = Fetch(candidates, locate, on_txn, &buffers);
  if (s.ok()) sql_internal::AppendRows(&buffers, rows);
  return s;
}

}  // namespace sebdb
