// Benchmark-side tracing for finelog's perfbench.
//
// Spans are recorded from the benchmark's own files only: around each call
// it makes into finelog (Client::Begin/Read/Write/Commit/Abort,
// System::Create/RecoverServer/RecoverClient) and around every
// LogSink::Sync, which a TimingSink injected through SystemConfig::log_sink
// observes. Spans stay in memory and are written out when the run ends.
//
// Attribution: the benchmark binds a SpanLog to the thread that is about to call
// into finelog (TraceScope) and opens one API span per call. A Sync on that
// thread becomes a child of the open span, and its duration is added to the
// parent's child_ns, so "self time" is end - start - child_ns. A Sync on a
// thread with no bound log (the real-clock reactor) lands in the sink's own
// orphan log.

#ifndef FINELOG_PERFBENCH_TRACE_H_
#define FINELOG_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "log/log_sink.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kBegin,
  kRead,
  kWrite,
  kCommit,
  kAbort,
  kCreate,
  kRecoverServer,
  kRecoverClient,
  kSyncClientLog,  // LogSink::Sync on a client's private log.
  kSyncServerLog,  // LogSink::Sync on the server log.
  kSyncStorage,    // LogSink::Sync on the database file or its journal.
  kCount,
};

inline const char* SpanName(SpanKind k) {
  static const char* const kNames[] = {
      "Client::Begin",         "Client::Read",
      "Client::Write",         "Client::Commit",
      "Client::Abort",         "System::Create",
      "System::RecoverServer", "System::RecoverClient",
      "LogSink::Sync/client_log", "LogSink::Sync/server_log",
      "LogSink::Sync/storage",
  };
  return kNames[static_cast<size_t>(k)];
}

// The Sync site names finelog passes are "client<N>.log.*", "server.log.*"
// and "server.disk.*" (pages and the doublewrite journal).
inline SpanKind SyncKindForSite(const std::string& site) {
  if (site.rfind("client", 0) == 0) return SpanKind::kSyncClientLog;
  if (site.rfind("server.log", 0) == 0) return SpanKind::kSyncServerLog;
  return SpanKind::kSyncStorage;
}

struct Span {
  SpanKind kind = SpanKind::kBegin;
  uint32_t client = 0;
  uint64_t txn = 0;      // Logical transaction; shared by its spans.
  int64_t parent = -1;   // Index of the causing span in the same log.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // Time covered by child spans.

  int64_t dur_ns() const { return end_ns - start_ns; }
  int64_t self_ns() const { return dur_ns() - child_ns; }
};

// Spans of one driving context. Appended to by one thread at a time.
class SpanLog {
 public:
  int64_t Open(SpanKind kind, uint32_t client, uint64_t txn, int64_t parent) {
    Span s;
    s.kind = kind;
    s.client = client;
    s.txn = txn;
    s.parent = parent;
    s.start_ns = NowNs();
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t idx) { spans_[static_cast<size_t>(idx)].end_ns = NowNs(); }
  void Add(const Span& s) { spans_.push_back(s); }
  void Reserve(size_t n) { spans_.reserve(n); }
  void AddChildTime(int64_t idx, int64_t ns) {
    spans_[static_cast<size_t>(idx)].child_ns += ns;
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
};

// The log and open span of the calling thread (null log: not tracing).
struct ThreadTrace {
  SpanLog* log = nullptr;
  int64_t open = -1;
  uint32_t client = 0;
  uint64_t txn = 0;
};
inline thread_local ThreadTrace tls_trace;

// Binds `log` to this thread for the scope; a null log leaves tracing off.
class TraceScope {
 public:
  TraceScope(SpanLog* log, uint32_t client) : saved_(tls_trace) {
    tls_trace = ThreadTrace{log, -1, client, 0};
  }
  ~TraceScope() { tls_trace = saved_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  ThreadTrace saved_;
};

// One span around a call into finelog, when the thread is traced.
class ApiSpan {
 public:
  ApiSpan(SpanKind kind, uint64_t txn) {
    ThreadTrace& t = tls_trace;
    if (t.log == nullptr) return;
    t.txn = txn;
    idx_ = t.log->Open(kind, t.client, txn, t.open);
    saved_open_ = t.open;
    t.open = idx_;
  }
  ~ApiSpan() {
    if (idx_ < 0) return;
    ThreadTrace& t = tls_trace;
    t.log->Close(idx_);
    t.open = saved_open_;
  }
  ApiSpan(const ApiSpan&) = delete;
  ApiSpan& operator=(const ApiSpan&) = delete;

 private:
  int64_t idx_ = -1;
  int64_t saved_open_ = -1;
};

// LogSink that makes bytes durable exactly as DurableSink does (fflush plus
// fdatasync) and records one span per Sync, tagged by its site.
class TimingSink final : public finelog::LogSink {
 public:
  finelog::Status Sync(std::FILE* file, const std::string& site) override {
    Span s;
    s.kind = SyncKindForSite(site);
    s.start_ns = NowNs();
    finelog::Status st = inner_.Sync(file, site);
    s.end_ns = NowNs();
    ThreadTrace& t = tls_trace;
    if (t.log != nullptr) {
      s.client = t.client;
      s.txn = t.txn;
      s.parent = t.open;
      if (t.open >= 0) t.log->AddChildTime(t.open, s.dur_ns());
      t.log->Add(s);
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      orphans_.Add(s);
    }
    return st;
  }

  uint64_t sync_count() const override { return inner_.sync_count(); }

  // Syncs made on threads with no bound log (the real-clock reactor).
  std::vector<Span> TakeOrphans() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out = orphans_.spans();
    orphans_.Clear();
    return out;
  }

 private:
  finelog::DurableSink inner_;
  std::mutex mu_;
  SpanLog orphans_;
};

// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Median(std::vector<double> v) { return Percentile(v, 0.5); }

}  // namespace perfbench

#endif  // FINELOG_PERFBENCH_TRACE_H_
