// Query execution engine (paper §V). Plans and runs SELECT / TRACE /
// GET BLOCK / CREATE INDEX statements against the block store, the index
// set, the catalog and the off-chain connector. Write statements (CREATE
// TABLE, INSERT) become on-chain transactions and are handled by the node
// (core/), not here.
//
// Access paths implement the three methods the paper benchmarks side by
// side (scan / table-level bitmap / layered index), selectable per query
// through ExecOptions for the method-comparison figures.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "offchain/offchain_db.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/eval.h"
#include "sql/index_set.h"
#include "sql/result.h"
#include "storage/block_store.h"

namespace sebdb {

enum class AccessPath {
  kAuto,     // layered if usable, else bitmap, else scan
  kScan,     // read every block
  kBitmap,   // table-level bitmap index
  kLayered,  // layered index on the constrained column
};

enum class JoinStrategy {
  kAuto,          // layered-merge if indices exist, else bitmap-hash
  kScanHash,      // hash join over a full chain scan
  kBitmapHash,    // hash join over bitmap-filtered blocks
  kLayeredMerge,  // per-block-pair sort-merge via layered indices (Alg. 2/3)
};

struct ExecOptions {
  AccessPath access_path = AccessPath::kAuto;
  JoinStrategy join_strategy = JoinStrategy::kAuto;
  /// Positional bindings for '?' parameters.
  std::vector<Value> params;
};

class Executor {
 public:
  /// `pool` drives the parallel scan pipeline: candidate blocks fan out to
  /// workers that read + decode + filter into per-block row buffers, merged
  /// back in (block, index) order so output is byte-identical to the serial
  /// path. nullptr executes every scan serially.
  Executor(BlockStore* store, IndexSet* indexes, Catalog* catalog,
           OffchainConnector* offchain, ThreadPool* pool = nullptr)
      : store_(store),
        indexes_(indexes),
        catalog_(catalog),
        offchain_(offchain),
        pool_(pool) {}

  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  /// Executes one parsed statement. EXPLAIN fills only ResultSet::plan.
  Status Execute(const Statement& stmt, const ExecOptions& options,
                 ResultSet* result);

  /// Convenience: parse + execute.
  Status ExecuteSql(std::string_view sql, const ExecOptions& options,
                    ResultSet* result);

 private:
  Status ExecSelect(const SelectStmt& stmt, const ExecOptions& options,
                    bool explain_only, ResultSet* result);
  Status ExecSingleTable(const SelectStmt& stmt, const ExecOptions& options,
                         bool explain_only, ResultSet* result);
  Status ExecOffchainOnly(const SelectStmt& stmt, const ExecOptions& options,
                          bool explain_only, ResultSet* result);
  Status ExecOnChainJoin(const SelectStmt& stmt, const ExecOptions& options,
                         bool explain_only, ResultSet* result);
  Status ExecOnOffJoin(const SelectStmt& stmt, const ExecOptions& options,
                       bool explain_only, ResultSet* result);
  Status ExecTrace(const TraceStmt& stmt, const ExecOptions& options,
                   bool explain_only, ResultSet* result);
  Status ExecGetBlock(const GetBlockStmt& stmt, const ExecOptions& options,
                      bool explain_only, ResultSet* result);
  Status ExecCreateIndex(const CreateIndexStmt& stmt, bool explain_only,
                         ResultSet* result);

  /// Evaluates an optional time window into a block bitmap (nullopt when the
  /// statement has no window).
  Status ResolveWindow(const std::optional<TimeWindow>& window,
                       const std::vector<Value>& params,
                       std::optional<Bitmap>* out) const;

  // --- The executor pipeline (paper §V): candidate step, then fetch stage.
  // Every SELECT, TRACE and join reads its blocks through these two.

  using Rows = std::vector<std::vector<Value>>;
  /// Second-level search inside one candidate block: the positions of the
  /// rows to read, in read order. Runs once per block on a fetch worker.
  using Locate =
      std::function<Status(size_t block, std::vector<uint32_t>* positions)>;

  /// Candidate step: the first-level filter's blocks (every block when
  /// nullopt) inside the statement's time window.
  Bitmap CandidateBlocks(std::optional<Bitmap> first_level,
                         const std::optional<Bitmap>& window) const;

  /// Fetch stage fan-out: work(i, &buffers[i]) for every unit i < `units`,
  /// spread over pool_, each unit into a private buffer. Buffers come back
  /// in unit order, so the caller sees exactly what the serial loop sees.
  template <typename Buffer, typename Work>
  Status FanOut(size_t units, const Work& work,
                std::vector<Buffer>* buffers) const;
  /// FanOut into row buffers, appended to `rows` in unit order.
  template <typename Work>
  Status FanOutRows(size_t units, const Work& work, Rows* rows) const;
  /// Reads block `block` whole, or only at `positions` in their order, and
  /// hands each transaction to on_txn(txn, out).
  template <typename Buffer, typename OnTxn>
  Status ReadTxns(size_t block, const std::vector<uint32_t>* positions,
                  const OnTxn& on_txn, Buffer* out) const;
  /// The whole fetch stage: each candidate block, located by `locate` when
  /// set, read by ReadTxns into its own buffer. on_txn is a template
  /// parameter, not a std::function: it runs once per transaction.
  template <typename Buffer, typename OnTxn>
  Status Fetch(const Bitmap& candidates, const Locate& locate,
               const OnTxn& on_txn, std::vector<Buffer>* buffers) const;
  /// Fetch into row buffers, appended to `rows` in block order.
  template <typename OnTxn>
  Status FetchRows(const Bitmap& candidates, const Locate& locate,
                   const OnTxn& on_txn, Rows* rows) const;

  /// Appends a transaction as a full schema row (system + app columns).
  static std::vector<Value> TxnToRow(const Transaction& txn, int num_columns);

  /// Applies projection to assembled rows (in place on `result`).
  Status Project(const SelectStmt& stmt, const ColumnBindings& bindings,
                 ResultSet* result) const;

  BlockStore* store_;
  IndexSet* indexes_;
  Catalog* catalog_;
  OffchainConnector* offchain_;
  ThreadPool* pool_;
};

}  // namespace sebdb
