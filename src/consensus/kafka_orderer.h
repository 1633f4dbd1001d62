// Kafka-style ordering service (substitutes Apache Kafka 1.0.0 in the
// paper's write benchmark). One participant acts as the broker: it sequences
// submitted transactions in a single topic partition and cuts blocks when
// the batch reaches max_batch_txns or the batch timeout fires — the same
// cut-by-size-or-timeout dynamics that shape Fig. 7's latency curve. Ordered
// batches are broadcast to every participant and delivered in sequence.
// Crash-fault-tolerant only (like Fabric's Kafka orderer), no BFT.
#pragma once

#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/admission.h"
#include "common/thread_annotations.h"
#include "consensus/engine.h"
#include "network/network.h"

namespace sebdb {

class KafkaOrderer : public ConsensusEngine {
 public:
  KafkaOrderer(std::string node_id, std::string broker_id,
               std::vector<std::string> participants, Network* network,
               ConsensusOptions options, BatchCommitFn commit_fn);
  ~KafkaOrderer() override;

  std::string name() const override { return "kafka"; }
  Status Start() override;
  void Stop() override;
  Status Submit(Transaction txn, std::function<void(Status)> done) override;
  uint64_t committed_batches() const override;
  MempoolStats mempool_stats() const override;
  void OnExternalCommit(const std::vector<Transaction>& txns) override;

  /// Routes "kafka.*" messages and ignores every other type.
  void HandleMessage(const Message& message) override;

  bool is_broker() const { return node_id_ == broker_id_; }

 private:
  void OnSubmit(const Message& message);
  void OnDeliver(const Message& message);
  void OnNack(const Message& message);
  void OnDupAck(const Message& message);
  void CutBatchLocked() REQUIRES(mu_);  // pending -> batch, broadcast
  void CutterLoop();  // broker: timeout-based cutting
  /// Applies buffered batches in sequence order; called with mu_ held,
  /// releases it around the commit hook and completion callbacks.
  void DeliverReady() REQUIRES(mu_);

  const std::string node_id_;
  const std::string broker_id_;
  const std::vector<std::string> participants_;
  Network* network_;
  const ConsensusOptions options_;
  BatchCommitFn commit_fn_;
  // Submit-side controller: charges txns this node originated, released
  // when they deliver (or are nacked by the broker). Internally
  // synchronized, safe to call under mu_.
  AdmissionController admission_;
  // Broker-side controller: bounds the pending queue; a shed submission is
  // nacked back to the origin with a retry hint (backpressure propagation).
  AdmissionController broker_admission_;

  mutable Mutex mu_;
  bool running_ GUARDED_BY(mu_) = false;
  std::thread cutter_;
  CondVar cutter_cv_;

  // Broker state.
  std::vector<Transaction> pending_ GUARDED_BY(mu_);
  int64_t first_pending_micros_ GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  // Keys the broker already sequenced: dedups resubmissions (a client that
  // timed out and resubmitted an already-ordered txn must not double-order
  // it).
  std::unordered_set<std::string> sequenced_keys_ GUARDED_BY(mu_);

  // Every participant: in-order delivery.
  std::map<uint64_t, std::vector<Transaction>> reorder_buffer_
      GUARDED_BY(mu_);
  uint64_t next_deliver_seq_ GUARDED_BY(mu_) = 0;
  uint64_t committed_batches_ GUARDED_BY(mu_) = 0;
  bool delivering_ GUARDED_BY(mu_) = false;

  // Local completion callbacks, keyed by transaction content hash.
  std::unordered_map<std::string, std::function<void(Status)>> done_
      GUARDED_BY(mu_);
};

}  // namespace sebdb
