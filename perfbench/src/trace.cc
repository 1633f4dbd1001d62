#include "trace.h"

#include <cstdio>
#include <set>
#include <unordered_map>

#include "common.h"
#include "core/node.h"

namespace perfbench {

namespace {

struct Record {
  const char* name;
  int64_t start;
  int64_t end;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
};

// Raw spans kept per thread; totals are exact beyond the cap.
constexpr size_t kMaxRecordsPerThread = 100000;

struct ThreadBuffer {
  sebdb::Mutex mu;
  std::vector<Record> records GUARDED_BY(mu);
  std::unordered_map<const char*, Tracer::Totals> totals GUARDED_BY(mu);
};

struct Registry {
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> next_id{1};
  sebdb::Mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers GUARDED_BY(mu);
  std::set<std::string> names GUARDED_BY(mu);
};

Registry& Reg() {
  static Registry* registry = new Registry();  // outlives every thread
  return *registry;
}

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    sebdb::MutexLock lock(&Reg().mu);
    Reg().buffers.push_back(std::move(owned));
    return raw;
  }();
  return buffer;
}

thread_local Span* current_span = nullptr;
thread_local uint64_t current_request = 0;

}  // namespace

void Tracer::Enable() { Reg().enabled.store(true); }
bool Tracer::enabled() { return Reg().enabled.load(std::memory_order_relaxed); }

const char* Tracer::Intern(const std::string& name) {
  sebdb::MutexLock lock(&Reg().mu);
  return Reg().names.insert(name).first->c_str();
}

void Tracer::SetRequest(uint64_t request) { current_request = request; }

std::map<std::string, Tracer::Totals> Tracer::Aggregate() {
  std::map<std::string, Totals> out;
  sebdb::MutexLock lock(&Reg().mu);
  for (auto& buffer : Reg().buffers) {
    sebdb::MutexLock buffer_lock(&buffer->mu);
    for (const auto& [name, totals] : buffer->totals) {
      Totals& t = out[name];
      t.count += totals.count;
      t.total_ns += totals.total_ns;
      t.self_ns += totals.self_ns;
    }
  }
  return out;
}

uint64_t Tracer::WriteSpans(const std::string& path, uint64_t max_spans) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\trequest\n");
  uint64_t written = 0;
  sebdb::MutexLock lock(&Reg().mu);
  for (auto& buffer : Reg().buffers) {
    sebdb::MutexLock buffer_lock(&buffer->mu);
    for (const Record& r : buffer->records) {
      if (written >= max_spans) break;
      fprintf(f, "%s\t%lld\t%lld\t%llu\t%llu\t%llu\n", r.name,
              static_cast<long long>(r.start), static_cast<long long>(r.end),
              static_cast<unsigned long long>(r.id),
              static_cast<unsigned long long>(r.parent),
              static_cast<unsigned long long>(r.request));
      written++;
    }
  }
  fclose(f);
  return written;
}

Span::Span(const char* name) {
  if (!Tracer::enabled()) return;
  name_ = name;
  id_ = Reg().next_id.fetch_add(1, std::memory_order_relaxed);
  outer_ = current_span;
  parent_ = outer_ != nullptr ? outer_->id_ : 0;
  current_span = this;
  start_ = NowNanos();
}

Span::~Span() {
  if (name_ == nullptr) return;
  int64_t end = NowNanos();
  int64_t duration = end - start_;
  if (outer_ != nullptr) outer_->child_ns_ += duration;
  current_span = outer_;
  ThreadBuffer* buffer = LocalBuffer();
  sebdb::MutexLock lock(&buffer->mu);
  Tracer::Totals& t = buffer->totals[name_];
  t.count++;
  t.total_ns += duration;
  t.self_ns += duration - child_ns_;
  if (buffer->records.size() < kMaxRecordsPerThread) {
    buffer->records.push_back(
        {name_, start_, end, id_, parent_, current_request});
  }
}

// ---- TracingNetwork ----

sebdb::Status TracingNetwork::Register(const std::string& node_id,
                                       Handler handler) {
  return inner_->Register(
      node_id, [this, handler = std::move(handler)](const sebdb::Message& m) {
        const char* name = Tracer::Intern("net.handle." + m.type);
        int64_t t0 = NowNanos();
        {
          Span span(name);
          handler(m);
        }
        int64_t ns = NowNanos() - t0;
        sebdb::MutexLock lock(&mu_);
        TypeStats& t = types_[m.type];
        t.handled++;
        t.handled_bytes += m.ByteSize();
        t.handler_ns += ns;
      });
}

sebdb::Status TracingNetwork::Unregister(const std::string& node_id) {
  return inner_->Unregister(node_id);
}

void TracingNetwork::Send(sebdb::Message message) {
  {
    sebdb::MutexLock lock(&mu_);
    TypeStats& t = types_[message.type];
    t.sent++;
    t.sent_bytes += message.ByteSize();
  }
  inner_->Send(std::move(message));
}

void TracingNetwork::Broadcast(const std::string& from,
                               const std::string& type,
                               const std::string& payload) {
  {
    sebdb::MutexLock lock(&mu_);
    TypeStats& t = types_[type];
    size_t peers = inner_->Nodes().size();
    uint64_t copies = peers > 0 ? peers - 1 : 0;
    t.sent += copies;
    t.sent_bytes += copies * (from.size() + type.size() + payload.size());
  }
  inner_->Broadcast(from, type, payload);
}

std::map<std::string, TracingNetwork::TypeStats> TracingNetwork::type_stats()
    const {
  sebdb::MutexLock lock(&mu_);
  return types_;
}

// ---- TracingEnv ----

namespace {

class TracingWritableFile : public sebdb::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<sebdb::WritableFile> inner,
                      TracingEnv::Counters* counters, const char* span_name)
      : inner_(std::move(inner)), c_(counters), span_name_(span_name) {}
  sebdb::Status Append(const sebdb::Slice& data) override {
    Span span(span_name_);
    int64_t t0 = NowNanos();
    sebdb::Status s = inner_->Append(data);
    c_->append_ns += NowNanos() - t0;
    c_->appends++;
    c_->append_bytes += data.size();
    return s;
  }
  sebdb::Status Sync() override {
    Span span("storage.env.sync");
    int64_t t0 = NowNanos();
    sebdb::Status s = inner_->Sync();
    c_->sync_ns += NowNanos() - t0;
    c_->syncs++;
    return s;
  }
  sebdb::Status Close() override { return inner_->Close(); }
  uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<sebdb::WritableFile> inner_;
  TracingEnv::Counters* c_;
  const char* span_name_;
};

class TracingReadableFile : public sebdb::ReadableFile {
 public:
  TracingReadableFile(std::unique_ptr<sebdb::ReadableFile> inner,
                      TracingEnv::Counters* counters)
      : inner_(std::move(inner)), c_(counters) {}
  sebdb::Status Read(uint64_t offset, size_t n,
                     std::string* out) const override {
    Span span("storage.env.read");
    int64_t t0 = NowNanos();
    sebdb::Status s = inner_->Read(offset, n, out);
    c_->read_ns += NowNanos() - t0;
    c_->reads++;
    c_->read_bytes += out->size();
    return s;
  }
  sebdb::Status Close() override { return inner_->Close(); }
  uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<sebdb::ReadableFile> inner_;
  TracingEnv::Counters* c_;
};

}  // namespace

TracingEnv::Kind TracingEnv::Classify(const std::string& path) {
  if (path.find("/checkpoints/") != std::string::npos) return kCheckpoint;
  size_t slash = path.rfind('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  if (base.rfind("seg_", 0) == 0) return kSegment;
  return kOther;
}

sebdb::Status TracingEnv::NewWritableFile(
    const std::string& path, std::unique_ptr<sebdb::WritableFile>* out) {
  std::unique_ptr<sebdb::WritableFile> inner;
  sebdb::Status s = inner_->NewWritableFile(path, &inner);
  if (!s.ok()) return s;
  Kind kind = Classify(path);
  if (kind == kCheckpoint && path.size() > 5 &&
      path.compare(path.size() - 5, 5, "_meta") == 0) {
    checkpoint_metas_++;
  }
  static const char* const kSpan[kNumKinds] = {"storage.env.segment_append",
                                               "storage.env.checkpoint_append",
                                               "storage.env.other_append"};
  *out = std::make_unique<TracingWritableFile>(std::move(inner),
                                               &counters_[kind], kSpan[kind]);
  return s;
}

sebdb::Status TracingEnv::NewReadableFile(
    const std::string& path, std::unique_ptr<sebdb::ReadableFile>* out) {
  std::unique_ptr<sebdb::ReadableFile> inner;
  sebdb::Status s = inner_->NewReadableFile(path, &inner);
  if (!s.ok()) return s;
  *out = std::make_unique<TracingReadableFile>(std::move(inner),
                                               &counters_[Classify(path)]);
  return s;
}

// ---- TracingThinTransport ----

uint64_t TracingThinTransport::BlocksRead(const std::string& node) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return 0;
  return it->second->chain().store()->stats().blocks_read.load();
}

sebdb::Status TracingThinTransport::GetHeaders(
    const std::string& node, sebdb::BlockId from,
    std::vector<sebdb::BlockHeader>* out) {
  Span span("auth.get_headers");
  return inner_->GetHeaders(node, from, out);
}

sebdb::Status TracingThinTransport::ProveRange(
    const std::string& node, const std::string& table,
    const std::string& column, const sebdb::Value* lo, const sebdb::Value* hi,
    sebdb::AuthQueryResponse* out) {
  Span span("auth.prove");
  uint64_t before = BlocksRead(node);
  int64_t t0 = NowNanos();
  sebdb::Status s = inner_->ProveRange(node, table, column, lo, hi, out);
  counters_.prove_ns += NowNanos() - t0;
  counters_.proves++;
  counters_.prove_blocks_read += BlocksRead(node) - before;
  if (s.ok()) counters_.proof_blocks += out->proofs.size();
  return s;
}

sebdb::Status TracingThinTransport::DigestRange(
    const std::string& node, const std::string& table,
    const std::string& column, const sebdb::Value* lo, const sebdb::Value* hi,
    uint64_t height, sebdb::Hash256* digest) {
  Span span("auth.digest");
  int64_t t0 = NowNanos();
  sebdb::Status s =
      inner_->DigestRange(node, table, column, lo, hi, height, digest);
  counters_.digest_ns += NowNanos() - t0;
  counters_.digests++;
  return s;
}

sebdb::Status TracingThinTransport::ProveTrace(
    const std::string& node, bool by_sender, const std::string& key,
    const sebdb::Timestamp* window_start, const sebdb::Timestamp* window_end,
    sebdb::AuthQueryResponse* out) {
  Span span("auth.prove");
  uint64_t before = BlocksRead(node);
  int64_t t0 = NowNanos();
  sebdb::Status s =
      inner_->ProveTrace(node, by_sender, key, window_start, window_end, out);
  counters_.prove_ns += NowNanos() - t0;
  counters_.proves++;
  counters_.prove_blocks_read += BlocksRead(node) - before;
  if (s.ok()) counters_.proof_blocks += out->proofs.size();
  return s;
}

sebdb::Status TracingThinTransport::DigestTrace(
    const std::string& node, bool by_sender, const std::string& key,
    uint64_t height, const sebdb::Timestamp* window_start,
    const sebdb::Timestamp* window_end, sebdb::Hash256* digest) {
  Span span("auth.digest");
  int64_t t0 = NowNanos();
  sebdb::Status s = inner_->DigestTrace(node, by_sender, key, height,
                                        window_start, window_end, digest);
  counters_.digest_ns += NowNanos() - t0;
  counters_.digests++;
  return s;
}

}  // namespace perfbench
