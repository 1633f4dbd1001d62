// Tracing for the traced run: spans recorded by the benchmark around its own
// calls into each SEBDB layer, plus wrappers for the seams the program
// already accepts (Network, Env, ThinClientTransport). Nothing under src/
// is instrumented; every number here is taken from outside the program.
//
// A span carries a name, start, end, its parent span on the same thread and
// the request id the benchmark set. Spans live in per-thread buffers in memory
// and are written out when the run ends. A span's self time is its duration
// minus the time covered by its child spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/thread_annotations.h"
#include "core/thin_client_transport.h"
#include "network/network.h"

namespace sebdb {
class SebdbNode;
}

namespace perfbench {

class Tracer {
 public:
  /// Tracing is off unless Enable() was called (the untraced run never
  /// records anything).
  static void Enable();
  static bool enabled();

  /// Interns a dynamic span name (e.g. a network message type).
  static const char* Intern(const std::string& name);

  /// Request id stamped on spans opened by this thread.
  static void SetRequest(uint64_t request);

  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  /// Per span name: how many, total and self nanoseconds.
  static std::map<std::string, Totals> Aggregate();
  /// Writes every recorded span (up to `max_spans`) as tab-separated lines
  /// name, start_ns, end_ns, id, parent, request. Returns spans written.
  static uint64_t WriteSpans(const std::string& path, uint64_t max_spans);
};

/// RAII span; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t start_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t child_ns_ = 0;
  Span* outer_ = nullptr;
};

/// Network seam: times every handler and counts messages and bytes per
/// message type (sent and handled).
class TracingNetwork : public sebdb::Network {
 public:
  explicit TracingNetwork(sebdb::Network* inner) : inner_(inner) {}

  sebdb::Status Register(const std::string& node_id, Handler handler) override;
  sebdb::Status Unregister(const std::string& node_id) override;
  void Send(sebdb::Message message) override;
  void Broadcast(const std::string& from, const std::string& type,
                 const std::string& payload) override;
  std::vector<std::string> Nodes() const override { return inner_->Nodes(); }
  sebdb::NetworkStats stats() const override { return inner_->stats(); }
  void Shutdown() override { inner_->Shutdown(); }
  uint64_t AddPeerWatcher(PeerWatcher watcher) override {
    return inner_->AddPeerWatcher(std::move(watcher));
  }
  void RemovePeerWatcher(uint64_t token) override {
    inner_->RemovePeerWatcher(token);
  }

  struct TypeStats {
    uint64_t sent = 0;
    uint64_t sent_bytes = 0;
    uint64_t handled = 0;
    uint64_t handled_bytes = 0;
    int64_t handler_ns = 0;
  };
  std::map<std::string, TypeStats> type_stats() const;

 private:
  sebdb::Network* inner_;
  mutable sebdb::Mutex mu_;
  std::map<std::string, TypeStats> types_ GUARDED_BY(mu_);
};

/// Env seam: appends, syncs, reads and bytes, split by file kind.
class TracingEnv : public sebdb::Env {
 public:
  enum Kind { kSegment = 0, kCheckpoint = 1, kOther = 2, kNumKinds = 3 };
  struct Counters {
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> append_bytes{0};
    std::atomic<int64_t> append_ns{0};
    std::atomic<uint64_t> syncs{0};
    std::atomic<int64_t> sync_ns{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<int64_t> read_ns{0};
  };

  explicit TracingEnv(sebdb::Env* inner) : inner_(inner) {}

  static Kind Classify(const std::string& path);
  const Counters& counters(Kind kind) const { return counters_[kind]; }
  /// Checkpoints written: each one creates exactly one "<prefix>_meta" file.
  uint64_t checkpoints() const { return checkpoint_metas_.load(); }

  sebdb::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<sebdb::WritableFile>* out) override;
  sebdb::Status NewReadableFile(
      const std::string& path,
      std::unique_ptr<sebdb::ReadableFile>* out) override;
  sebdb::Status CreateDirIfMissing(const std::string& path) override {
    return inner_->CreateDirIfMissing(path);
  }
  sebdb::Status ListDir(const std::string& path,
                        std::vector<std::string>* out) override {
    return inner_->ListDir(path, out);
  }
  sebdb::Status RemoveDirRecursive(const std::string& path) override {
    return inner_->RemoveDirRecursive(path);
  }
  sebdb::Status RemoveFile(const std::string& path) override {
    return inner_->RemoveFile(path);
  }
  sebdb::Status TruncateFile(const std::string& path, uint64_t size) override {
    return inner_->TruncateFile(path, size);
  }
  sebdb::Status FileSize(const std::string& path, uint64_t* size) override {
    return inner_->FileSize(path, size);
  }
  sebdb::Status SyncDir(const std::string& path) override {
    return inner_->SyncDir(path);
  }

 private:
  sebdb::Env* inner_;
  Counters counters_[kNumKinds];
  std::atomic<uint64_t> checkpoint_metas_{0};
};

/// ThinClientTransport seam: spans and counts around prove, digest and
/// header calls, and the prover's StorageStats delta across each prove
/// (nodes are in-process, so their counters are readable directly).
class TracingThinTransport : public sebdb::ThinClientTransport {
 public:
  TracingThinTransport(std::unique_ptr<sebdb::ThinClientTransport> inner,
                       std::map<std::string, sebdb::SebdbNode*> nodes)
      : inner_(std::move(inner)), nodes_(std::move(nodes)) {}

  struct Counters {
    uint64_t proves = 0;
    int64_t prove_ns = 0;
    uint64_t prove_blocks_read = 0;  // prover StorageStats::blocks_read delta
    uint64_t proof_blocks = 0;       // AliBlockProof entries returned
    uint64_t digests = 0;
    int64_t digest_ns = 0;
  };
  Counters counters() const { return counters_; }

  std::vector<std::string> Nodes() override { return inner_->Nodes(); }
  sebdb::Status GetHeaders(const std::string& node, sebdb::BlockId from,
                           std::vector<sebdb::BlockHeader>* out) override;
  sebdb::Status GetRawBlock(const std::string& node, sebdb::BlockId height,
                            std::string* record) override {
    return inner_->GetRawBlock(node, height, record);
  }
  sebdb::Status ProveRange(const std::string& node, const std::string& table,
                           const std::string& column, const sebdb::Value* lo,
                           const sebdb::Value* hi,
                           sebdb::AuthQueryResponse* out) override;
  sebdb::Status DigestRange(const std::string& node, const std::string& table,
                            const std::string& column, const sebdb::Value* lo,
                            const sebdb::Value* hi, uint64_t height,
                            sebdb::Hash256* digest) override;
  sebdb::Status ProveTrace(const std::string& node, bool by_sender,
                           const std::string& key,
                           const sebdb::Timestamp* window_start,
                           const sebdb::Timestamp* window_end,
                           sebdb::AuthQueryResponse* out) override;
  sebdb::Status DigestTrace(const std::string& node, bool by_sender,
                            const std::string& key, uint64_t height,
                            const sebdb::Timestamp* window_start,
                            const sebdb::Timestamp* window_end,
                            sebdb::Hash256* digest) override;

 private:
  uint64_t BlocksRead(const std::string& node) const;

  std::unique_ptr<sebdb::ThinClientTransport> inner_;
  std::map<std::string, sebdb::SebdbNode*> nodes_;
  Counters counters_;  // the thin client calls from one thread
};

}  // namespace perfbench
