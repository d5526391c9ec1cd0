// finelog perfbench: the repository's benchmark.
//
//   finelog_perfbench --workload <local_commit|ship_merge|contended_mix>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --dir <workspace> [--trace-out <file>]
//
// Drives finelog only through the public System/Client API with its own
// seeded closed-loop generator (src/core/workload*.cc is deliberately not
// used, so a change to the library's workload generators cannot move the
// numbers).
//
// A run is a sequence of rounds. Each round creates a fresh deployment,
// preloads and warms it (setup), runs a fixed amount of work (the measured
// phase), crashes the server and every client, times recovery, and reads
// back every object a committed transaction wrote. The crash follows a fixed
// amount of work, not of time, because recovery cost grows with log length.
// Rounds run in cycles: a cycle replays each of the workload's `schedules`
// seeded schedules once, all derived from --seed. A run is a whole number of
// cycles, at least one, and starts another only if it is expected to end
// within --seconds; so the simulated workloads' counts per transaction repeat
// exactly for a given seed. Rates and times are taken per round, and the
// run reports the best quarter of its rounds (BestQuartile).
//
// Flush policy, every workload: DurableSink (fflush + fdatasync) behind every
// force, group_commit_window = 0 and max_batch_items = 1, so Commit returns
// only once the commit is durable.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs every schedule
// twice, traced and untraced in alternating order, and prints the per-layer
// metrics plus the tracing overhead (traced versus untraced txn_per_s). The
// last line of stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "log/log_sink.h"
#include "net/message.h"
#include "net/transport.h"
#include "perfbench/trace.h"

using finelog::Client;
using finelog::ExecMode;
using finelog::MessageType;
using finelog::ObjectId;
using finelog::PageId;
using finelog::Rng;
using finelog::SlotId;
using finelog::Status;
using finelog::System;
using finelog::SystemConfig;
using finelog::TxnId;

namespace perfbench {
namespace {

constexpr uint32_t kPageSize = 4096;
constexpr uint32_t kObjectsPerPage = 16;
constexpr uint32_t kObjectSize = 128;
constexpr uint32_t kOpsPerTxn = 4;
// kWouldBlock retries of one operation before the transaction aborts
// (timeout-style deadlock resolution), and attempts of one logical
// transaction before the run fails.
constexpr uint32_t kMaxRetries = 20;
constexpr uint32_t kMaxAttempts = 1000;
// A run that finishes no transaction (or phase) for this long has hung.
constexpr int kStallSeconds = 30;
// No round starts this late into a run, which must end within 180 s.
constexpr double kLastRoundStartSeconds = 120;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Op {
  bool write = false;
  uint32_t obj = 0;  // page * kObjectsPerPage + slot.
};

struct Spec;
// Fills `ops` with the client's transaction number `index` of its stream.
using GenFn = void (*)(const Spec&, uint32_t client, uint64_t index, Rng& rng,
                       std::vector<Op>* ops);

struct Spec {
  const char* name;
  ExecMode mode;
  uint32_t clients;
  uint32_t db_pages;
  uint32_t client_cache_pages;
  uint32_t server_pool_pages;
  uint32_t warmup_txns;  // Per client, part of setup.
  uint32_t round_txns;   // Per client: the fixed work of one round.
  uint32_t schedules;    // Rounds per cycle, each with its own schedule.
  GenFn warmup;
  GenFn gen;
};

ObjectId ToObjectId(uint32_t obj) {
  return ObjectId{PageId(obj / kObjectsPerPage),
                  static_cast<SlotId>(obj % kObjectsPerPage)};
}

// local_commit: each client owns 4 pages (64 objects); reads 2, writes 2.
constexpr uint32_t kLocalPagesPerClient = 4;
constexpr uint32_t kLocalObjects = kLocalPagesPerClient * kObjectsPerPage;

uint32_t LocalObject(uint32_t client, uint32_t i) {
  return client * kLocalObjects + i;
}

void LocalWarmup(const Spec&, uint32_t client, uint64_t index, Rng&,
                 std::vector<Op>* ops) {
  // Write every owned object once (16 txns of 4 writes) so each is cached
  // under an exclusive lock: after this the server sees no messages.
  ops->clear();
  for (uint32_t j = 0; j < kOpsPerTxn; ++j) {
    const uint64_t i = index * kOpsPerTxn + j;
    ops->push_back({true, LocalObject(client, i % kLocalObjects)});
  }
}

void LocalGen(const Spec&, uint32_t client, uint64_t, Rng& rng,
              std::vector<Op>* ops) {
  ops->clear();
  for (uint32_t j = 0; j < kOpsPerTxn; ++j) {
    ops->push_back({j % 2 == 1,
                    LocalObject(client, static_cast<uint32_t>(
                                            rng.Uniform(kLocalObjects)))});
  }
}

// ship_merge: the client's own slot on 4 distinct pages drawn uniformly from
// the first 256 pages, which every client shares.
constexpr uint32_t kSharedPages = 256;

void ShipGen(const Spec&, uint32_t client, uint64_t, Rng& rng,
             std::vector<Op>* ops) {
  ops->clear();
  while (ops->size() < kOpsPerTxn) {
    const uint32_t page = static_cast<uint32_t>(rng.Uniform(kSharedPages));
    const uint32_t obj = page * kObjectsPerPage + client % kObjectsPerPage;
    bool dup = false;
    for (const Op& op : *ops) dup = dup || op.obj == obj;
    if (!dup) ops->push_back({true, obj});
  }
}

// contended_mix: 2 reads and 2 writes in random order over Zipf(0.99)
// objects of the whole database. Ranks are scattered over the objects by a
// multiplicative bijection so the hottest objects sit on different pages.
class Zipf {
 public:
  Zipf(uint32_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

void MixGen(const Spec& spec, uint32_t, uint64_t, Rng& rng,
            std::vector<Op>* ops) {
  const uint32_t n = spec.db_pages * kObjectsPerPage;  // A power of two.
  static const Zipf zipf(n, 0.99);
  static constexpr std::array<std::array<bool, 4>, 6> kOrders = {{
      {false, false, true, true},
      {false, true, false, true},
      {false, true, true, false},
      {true, false, false, true},
      {true, false, true, false},
      {true, true, false, false},
  }};
  const auto& order = kOrders[rng.Uniform(kOrders.size())];
  ops->clear();
  for (uint32_t j = 0; j < kOpsPerTxn; ++j) {
    const uint32_t rank = zipf.Next(rng);
    ops->push_back({order[j], (rank * 2654435761u) & (n - 1)});
  }
}

// Why each workload is there: BENCHMARK.json and workloads.json.
// Rounds of the simulated workloads are 10 txns per client because restart
// recovery grows faster than linearly with the work before the crash.
const Spec kSpecs[] = {
    // name, mode, clients, db pages, client cache, server pool,
    // warm-up txns, round txns, schedules, warm-up, generator.
    {"local_commit", ExecMode::kRealClock, 3, 3 * kLocalPagesPerClient, 8,
     3 * kLocalPagesPerClient, kLocalObjects / kOpsPerTxn, 4000, 4,
     LocalWarmup, LocalGen},
    {"ship_merge", ExecMode::kSimulated, 16, 512, 8, 64, 4, 10, 10, ShipGen,
     ShipGen},
    {"contended_mix", ExecMode::kSimulated, 16, 512, 8, 64, 4, 10, 24,
     MixGen, MixGen},
};

// ---------------------------------------------------------------------------
// Watchdog: a run that stops making progress fails with a message naming
// the workload and each client's last call, instead of stalling forever.
// ---------------------------------------------------------------------------

constexpr size_t kMaxClients = 64;
std::atomic<uint64_t> g_progress{0};
std::atomic<const char*> g_phase{"start"};
std::array<std::atomic<int>, kMaxClients> g_last_call{};  // kind*2 + in_call
std::array<std::atomic<uint64_t>, kMaxClients> g_last_txn{};

void Progress() { g_progress.fetch_add(1, std::memory_order_relaxed); }

void SetPhase(const char* phase) {
  g_phase.store(phase, std::memory_order_relaxed);
  Progress();
}

class Watchdog {
 public:
  explicit Watchdog(const Spec& spec)
      : spec_(spec), thread_([this] { Loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Loop() {
    uint64_t seen = g_progress.load(std::memory_order_relaxed);
    int idle_ticks = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stop_; })) {
      const uint64_t now = g_progress.load(std::memory_order_relaxed);
      if (now != seen) {
        seen = now;
        idle_ticks = 0;
        continue;
      }
      if (++idle_ticks < kStallSeconds * 10) continue;
      std::fprintf(stderr,
                   "perfbench: watchdog: workload %s made no progress for "
                   "%d s in phase '%s'\n",
                   spec_.name, kStallSeconds,
                   g_phase.load(std::memory_order_relaxed));
      for (uint32_t i = 0; i < spec_.clients && i < kMaxClients; ++i) {
        const int code = g_last_call[i].load(std::memory_order_relaxed);
        std::fprintf(stderr, "  client %u: last call %s (%s), txn %llu\n", i,
                     SpanName(static_cast<SpanKind>(code / 2)),
                     code % 2 == 1 ? "still inside" : "returned",
                     static_cast<unsigned long long>(
                         g_last_txn[i].load(std::memory_order_relaxed)));
      }
      std::fflush(stderr);
      // The hung client threads cannot be joined; ending the process is the
      // only way to stop them.
      std::_Exit(3);
    }
  }

  const Spec& spec_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // Declared last: starts after the members it uses.
};

// ---------------------------------------------------------------------------
// Expected state and values
// ---------------------------------------------------------------------------

// Every written value encodes a tag unique to (client, logical txn, op).
uint64_t MakeTag(uint32_t client, uint64_t txn_index, uint32_t op) {
  return (uint64_t{client} + 1) << 40 | (txn_index + 1) << 8 | op;
}

std::string MakeValue(uint64_t tag) {
  if (tag == 0) return std::string(kObjectSize, '\0');  // As preloaded.
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx|",
                static_cast<unsigned long long>(tag));
  std::string v;
  v.reserve(kObjectSize);
  while (v.size() < kObjectSize) v.append(buf, 17);
  v.resize(kObjectSize);
  return v;
}

// The benchmark's view of committed state. In real-clock mode clients write
// disjoint objects, so each element has a single writer thread.
struct Expected {
  explicit Expected(size_t n) : committed(n, 0), written(n, 0) {}
  std::vector<uint64_t> committed;  // Tag of the last committed write.
  std::vector<uint8_t> written;     // 1 once any committed txn wrote it.
};

// ---------------------------------------------------------------------------
// Per-client closed loop
// ---------------------------------------------------------------------------

struct LoopStats {
  uint64_t committed = 0;
  uint64_t committed_writes = 0;
  uint64_t aborts = 0;
  uint64_t would_blocks = 0;
  uint64_t read_mismatches = 0;
  std::vector<double> txn_ns;     // Begin -> Commit returned, with retries.
  std::vector<double> commit_ns;  // The Commit call alone.
};

class ClientLoop {
 public:
  ClientLoop(const Spec& spec, System* system, Expected* expected,
               uint32_t id, Rng* rng, GenFn gen, uint64_t txns,
               uint64_t first_index, SpanLog* spans)
      : spec_(spec),
        client_(system->client(id)),
        expected_(expected),
        id_(id),
        rng_(rng),
        gen_(gen),
        quota_(txns),
        index_(first_index),
        spans_(spans) {}

  bool done() const { return !error_.empty() || finished_ >= quota_; }
  const std::string& error() const { return error_; }
  LoopStats& stats() { return stats_; }

  // Performs at most one call into finelog: none while backing off.
  void Step() {
    if (backoff_ > 0) {
      --backoff_;
      if (spec_.mode == ExecMode::kRealClock) std::this_thread::yield();
      return;
    }
    TraceScope scope(spans_, id_);
    if (txn_ == finelog::kInvalidTxnId) {
      if (ops_.empty()) {
        gen_(spec_, id_, index_, *rng_, &ops_);
        attempt_start_ns_ = NowNs();
        attempts_ = 0;
      }
      Mark(SpanKind::kBegin, true);
      auto txn = [&] {
        ApiSpan span(SpanKind::kBegin, LogicalTxn());
        return client_.Begin();
      }();
      Mark(SpanKind::kBegin, false);
      if (txn.ok()) {
        txn_ = txn.value();
        op_ = 0;
        retries_ = 0;
        staged_.clear();
        return;
      }
      if (!txn.status().IsWouldBlock() || ++retries_ > kMaxRetries) {
        Fail(txn.status(), "Begin");
      } else {
        ++stats_.would_blocks;
      }
      return;
    }
    if (op_ < ops_.size()) {
      const Op& op = ops_[op_];
      const ObjectId oid = ToObjectId(op.obj);
      Status s;
      if (op.write) {
        const uint64_t tag = MakeTag(id_, index_, op_);
        const std::string value = MakeValue(tag);
        Mark(SpanKind::kWrite, true);
        {
          ApiSpan span(SpanKind::kWrite, LogicalTxn());
          s = client_.Write(txn_, oid, value);
        }
        Mark(SpanKind::kWrite, false);
        if (s.ok()) staged_.emplace_back(op.obj, tag);
      } else {
        Mark(SpanKind::kRead, true);
        auto got = [&] {
          ApiSpan span(SpanKind::kRead, LogicalTxn());
          return client_.Read(txn_, oid);
        }();
        Mark(SpanKind::kRead, false);
        s = got.status();
        if (s.ok()) CheckRead(op.obj, got.value());
      }
      if (s.ok()) {
        ++op_;
        retries_ = 0;
        return;
      }
      if (!s.IsWouldBlock()) {
        Fail(s, op.write ? "Write" : "Read");
        return;
      }
      ++stats_.would_blocks;
      if (++retries_ <= kMaxRetries) return;
      Mark(SpanKind::kAbort, true);
      {
        ApiSpan span(SpanKind::kAbort, LogicalTxn());
        s = client_.Abort(txn_);
      }
      Mark(SpanKind::kAbort, false);
      if (!s.ok()) {
        Fail(s, "Abort");
        return;
      }
      ++stats_.aborts;
      txn_ = finelog::kInvalidTxnId;
      retries_ = 0;
      // Randomized exponential backoff, in turns: without it two clients
      // that deadlock on the same objects can abort and collide forever.
      // Drawn from its own stream so it never shifts the generated inputs.
      ++attempts_;
      backoff_ = backoff_rng_.Uniform(uint64_t{1} << std::min(attempts_, 8u));
      if (attempts_ >= kMaxAttempts) {
        error_ = "client " + std::to_string(id_) + ": transaction " +
                 std::to_string(index_) + " aborted " +
                 std::to_string(attempts_) + " times";
      }
      return;
    }
    Mark(SpanKind::kCommit, true);
    const int64_t t0 = NowNs();
    Status s;
    {
      ApiSpan span(SpanKind::kCommit, LogicalTxn());
      s = client_.Commit(txn_);
    }
    const int64_t t1 = NowNs();
    Mark(SpanKind::kCommit, false);
    if (!s.ok()) {
      if (!s.IsWouldBlock() || ++retries_ > kMaxRetries) Fail(s, "Commit");
      return;
    }
    for (const auto& [obj, tag] : staged_) {
      expected_->committed[obj] = tag;
      expected_->written[obj] = 1;
    }
    ++stats_.committed;
    stats_.committed_writes += staged_.size();
    stats_.commit_ns.push_back(static_cast<double>(t1 - t0));
    stats_.txn_ns.push_back(static_cast<double>(t1 - attempt_start_ns_));
    txn_ = finelog::kInvalidTxnId;
    ops_.clear();
    ++index_;
    ++finished_;
    Progress();
  }

 private:
  uint64_t LogicalTxn() const { return (uint64_t{id_} << 32) | index_; }

  void Mark(SpanKind kind, bool in_call) {
    if (id_ >= kMaxClients) return;
    g_last_call[id_].store(static_cast<int>(kind) * 2 + (in_call ? 1 : 0),
                           std::memory_order_relaxed);
    g_last_txn[id_].store(LogicalTxn(), std::memory_order_relaxed);
  }

  void CheckRead(uint32_t obj, const std::string& got) {
    uint64_t tag = expected_->committed[obj];
    for (const auto& [o, t] : staged_) {
      if (o == obj) tag = t;
    }
    if (got == MakeValue(tag)) return;
    if (++stats_.read_mismatches <= 5) {
      std::printf("read mismatch: client %u object %s expected tag %llx\n",
                  id_, finelog::ToString(ToObjectId(obj)).c_str(),
                  static_cast<unsigned long long>(tag));
    }
  }

  void Fail(const Status& s, const char* call) {
    error_ = "client " + std::to_string(id_) + ": " + call + ": " +
             s.ToString();
  }

  const Spec& spec_;
  Client& client_;
  Expected* expected_;
  const uint32_t id_;
  Rng* rng_;
  GenFn gen_;
  const uint64_t quota_;
  uint64_t index_;  // Logical transaction number in this client's stream.
  SpanLog* spans_;

  uint64_t finished_ = 0;
  std::vector<Op> ops_;
  size_t op_ = 0;
  TxnId txn_ = finelog::kInvalidTxnId;
  int64_t attempt_start_ns_ = 0;
  uint32_t retries_ = 0;
  uint32_t attempts_ = 0;
  uint64_t backoff_ = 0;
  Rng backoff_rng_{~uint64_t{0} - id_};
  std::vector<std::pair<uint32_t, uint64_t>> staged_;
  LoopStats stats_;
  std::string error_;
};

// Runs `txns` transactions per client: round-robin, one call per turn, on
// the caller's thread in simulated mode; one thread per client otherwise.
std::string RunPhase(const Spec& spec, System* system, Expected* expected,
                     std::vector<Rng>* rngs, GenFn gen, uint64_t txns,
                     uint64_t first_index, std::vector<SpanLog>* spans,
                     std::vector<LoopStats>* stats) {
  std::vector<ClientLoop> loops;
  loops.reserve(spec.clients);
  for (uint32_t i = 0; i < spec.clients; ++i) {
    loops.emplace_back(spec, system, expected, i, &(*rngs)[i], gen, txns,
                         first_index, spans != nullptr ? &(*spans)[i] : nullptr);
  }
  if (spec.mode == ExecMode::kSimulated) {
    for (bool any = true; any;) {
      any = false;
      for (ClientLoop& d : loops) {
        if (d.done()) continue;
        d.Step();
        if (!d.error().empty()) return d.error();
        any = true;
      }
    }
  } else {
    std::vector<std::thread> threads;
    threads.reserve(loops.size());
    for (ClientLoop& d : loops) {
      threads.emplace_back([&d] {
        while (!d.done()) d.Step();
      });
    }
    for (std::thread& t : threads) t.join();
    for (ClientLoop& d : loops) {
      if (!d.error().empty()) return d.error();
    }
  }
  if (stats != nullptr) {
    for (ClientLoop& d : loops) stats->push_back(std::move(d.stats()));
  }
  return "";
}

// ---------------------------------------------------------------------------
// Counter snapshots
// ---------------------------------------------------------------------------

using Counters = std::map<std::string, double>;

Counters Snapshot(System& system) {
  Counters c;
  for (const auto& [name, v] : system.metrics().Snapshot()) {
    c[name] = static_cast<double>(v);
  }
  finelog::Channel& ch = system.channel();
  c["net.msgs"] = static_cast<double>(ch.total_messages());
  c["net.items"] = static_cast<double>(ch.total_items());
  c["net.bytes"] = static_cast<double>(ch.total_bytes());
  auto type_count = [&](MessageType t) {
    return static_cast<double>(
        ch.stats(t).count.load(std::memory_order_relaxed));
  };
  c["net.lock_requests"] = type_count(MessageType::kLockRequest);
  c["net.page_fetches"] = type_count(MessageType::kPageFetch);
  c["net.page_ships"] = type_count(MessageType::kPageShip);
  c["net.callbacks"] = type_count(MessageType::kCallbackRequest);
  double forces = 0, bytes = 0;
  for (size_t i = 0; i < system.num_clients(); ++i) {
    forces += static_cast<double>(system.client(i).log().force_count());
    bytes += static_cast<double>(system.client(i).log().bytes_appended());
  }
  c["log.client_forces"] = forces;
  c["log.client_bytes"] = bytes;
  c["log.server_forces"] =
      static_cast<double>(system.server().log().force_count());
  c["log.server_bytes"] =
      static_cast<double>(system.server().log().bytes_appended());
  c["disk.reads"] = static_cast<double>(system.server().disk_reads());
  c["disk.writes"] = static_cast<double>(system.server().disk_writes());
  c["transport.frames"] =
      system.transport() != nullptr
          ? static_cast<double>(system.transport()->frames_executed())
          : 0.0;
  c["sink.syncs"] = static_cast<double>(system.log_sink()->sync_count());
  c["sim.us"] = static_cast<double>(system.clock().now_us());
  return c;
}

void AddDiff(const Counters& before, const Counters& after, Counters* sum) {
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    (*sum)[name] += v - (it == before.end() ? 0.0 : it->second);
  }
}

double Get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------------

struct Totals {
  int rounds = 0;
  uint64_t attempted = 0;  // Logical transactions of the measured phases.
  uint64_t committed = 0;
  uint64_t committed_writes = 0;
  uint64_t aborts = 0;
  uint64_t would_blocks = 0;
  // One value per round; see BestQuartile.
  std::vector<double> txn_per_s;
  std::vector<double> txn_p50_ms;
  std::vector<double> commit_p50_ms;
  double busy_s = 0.0;  // Measured time summed over the driving threads.
  std::vector<double> txn_ns;
  std::vector<double> commit_ns;
  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  std::vector<double> server_recovery_s;
  std::vector<double> client_recovery_s;
  std::vector<double> pages_recovered;
  std::vector<double> recovery_msgs;
  std::vector<std::string> lost;  // Object ids, one entry per round lost.
  uint64_t checked = 0;
  Counters counters;  // Summed measured-phase deltas.
  // Measured-phase span durations by kind, and Commit self times (us).
  std::array<std::vector<double>, static_cast<size_t>(SpanKind::kCount)>
      span_us;
  std::vector<double> commit_self_us;
};

// Spans written out at the end of a traced run, capped to keep the file and
// the process small; the metrics use every span.
constexpr size_t kKeptSpans = 200000;

struct RunState {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  std::string dir;
  uint64_t read_mismatches = 0;
  std::string error;
  std::vector<std::pair<int, Span>> kept_spans;  // (round, span)
};

SystemConfig MakeConfig(const Spec& spec, ExecMode mode,
                        finelog::LogSink* sink, const std::string& dir) {
  SystemConfig config;
  config.exec_mode = mode;
  config.num_clients = spec.clients;
  config.dir = dir;
  config.log_sink = sink;
  config.page_size = kPageSize;
  config.num_pages = spec.db_pages;
  config.preloaded_pages = spec.db_pages;
  config.objects_per_page = kObjectsPerPage;
  config.object_size = kObjectSize;
  config.client_cache_pages = spec.client_cache_pages;
  config.server_cache_pages = spec.server_pool_pages;
  config.group_commit_window = 0;
  config.max_batch_items = 1;
  return config;
}

// One generator stream per client; Rng's SplitMix seeding decorrelates the
// consecutive raw seeds.
std::vector<Rng> SeedStreams(const Spec& spec, uint64_t seed,
                             uint32_t schedule) {
  std::vector<Rng> rngs;
  for (uint32_t i = 0; i < spec.clients; ++i) {
    rngs.emplace_back((seed * spec.schedules + schedule) * kMaxClients + i);
  }
  return rngs;
}

// Records a traced round's spans: their durations when they belong to the
// measured phase, and the spans themselves up to kKeptSpans.
void TakeSpans(RunState* run, int round, const std::vector<Span>& spans,
               bool measured, Totals* totals) {
  for (const Span& s : spans) {
    if (measured) {
      totals->span_us[static_cast<size_t>(s.kind)].push_back(
          static_cast<double>(s.dur_ns()) / 1e3);
      if (s.kind == SpanKind::kCommit) {
        totals->commit_self_us.push_back(static_cast<double>(s.self_ns()) /
                                         1e3);
      }
    }
    if (run->kept_spans.size() < kKeptSpans) {
      run->kept_spans.emplace_back(round, s);
    }
  }
}

bool WriteSpans(const std::string& path,
                const std::vector<std::pair<int, Span>>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "round\tspan\tclient\ttxn\tparent\tstart_ns\tend_ns\t"
               "child_ns\n");
  for (const auto& [round, s] : spans) {
    std::fprintf(out, "%d\t%s\t%u\t%llx\t%lld\t%lld\t%lld\t%lld\n", round,
                 SpanName(s.kind), s.client,
                 static_cast<unsigned long long>(s.txn),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.child_ns));
  }
  return std::fclose(out) == 0;
}

// Reads back every object a committed transaction wrote, through client 0,
// and returns the ones whose value is not the last committed one.
Status VerifyRecovered(System* system, const Expected& expected,
                       uint64_t* checked, std::vector<std::string>* lost) {
  Client& c = system->client(0);
  std::vector<uint32_t> objs;
  for (uint32_t o = 0; o < expected.written.size(); ++o) {
    if (expected.written[o] != 0) objs.push_back(o);
  }
  constexpr size_t kBatch = 32;
  for (size_t b = 0; b < objs.size(); b += kBatch) {
    auto txn = c.Begin();
    if (!txn.ok()) return txn.status();
    for (size_t j = b; j < std::min(objs.size(), b + kBatch); ++j) {
      const uint32_t obj = objs[j];
      auto got = c.Read(txn.value(), ToObjectId(obj));
      for (int tries = 0; !got.ok() && got.status().IsWouldBlock() &&
                          tries < 100;
           ++tries) {
        got = c.Read(txn.value(), ToObjectId(obj));
      }
      ++*checked;
      if (got.ok() && got.value() == MakeValue(expected.committed[obj])) {
        continue;
      }
      std::string id = finelog::ToString(ToObjectId(obj));
      if (!got.ok()) {
        id += '(';
        id += got.status().ToString();
        id += ')';
      }
      lost->push_back(std::move(id));
    }
    Status s = c.Commit(txn.value());
    if (!s.ok()) return s;
    Progress();
  }
  return Status::OK();
}

// Crashes the server and every client and recovers them, timing recovery.
// Traced rounds recover through RecoverServer + RecoverClient (each one a
// span), which is what RecoverAll does for a single-server deployment.
Status CrashAndRecover(System* system, bool traced, SpanLog* harness,
                       Totals* totals) {
  SetPhase("crash");
  FINELOG_RETURN_IF_ERROR(system->CrashServer());
  for (size_t i = 0; i < system->num_clients(); ++i) {
    FINELOG_RETURN_IF_ERROR(system->CrashClient(i));
  }
  SetPhase("recovery");
  const Counters before = Snapshot(*system);
  const int64_t t0 = NowNs();
  if (!traced) {
    FINELOG_RETURN_IF_ERROR(system->RecoverAll());
  } else {
    TraceScope scope(harness, 0);
    const size_t first = harness->spans().size();
    {
      ApiSpan span(SpanKind::kRecoverServer, 0);
      FINELOG_RETURN_IF_ERROR(system->RecoverServer());
    }
    std::vector<bool> pending(system->num_clients(), true);
    for (size_t pass = 0;; ++pass) {
      bool deferred = false;
      for (size_t i = 0; i < pending.size(); ++i) {
        if (!pending[i]) continue;
        Status s;
        {
          ApiSpan span(SpanKind::kRecoverClient, i);
          s = system->RecoverClient(i);
        }
        Progress();
        if (s.IsWouldBlock() && pass < pending.size()) {
          deferred = true;
          continue;
        }
        FINELOG_RETURN_IF_ERROR(s);
        pending[i] = false;
      }
      if (!deferred) break;
    }
    double server_ns = 0, client_ns = 0;
    for (size_t i = first; i < harness->spans().size(); ++i) {
      const Span& s = harness->spans()[i];
      if (s.kind == SpanKind::kRecoverServer) server_ns += s.dur_ns();
      if (s.kind == SpanKind::kRecoverClient) client_ns += s.dur_ns();
    }
    totals->server_recovery_s.push_back(server_ns / 1e9);
    totals->client_recovery_s.push_back(client_ns / 1e9);
  }
  totals->recovery_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  const Counters after = Snapshot(*system);
  Counters delta;
  AddDiff(before, after, &delta);
  totals->pages_recovered.push_back(
      Get(delta, "server.recovery_page_fetches") +
      Get(delta, "server.coordinated_page_recoveries") +
      Get(delta, "recovery.pages_repaired"));
  totals->recovery_msgs.push_back(Get(delta, "net.msgs"));
  return Status::OK();
}

// Deletes `dir` and waits until its filesystem has committed the deletion.
// On a filesystem mounted with online discard, the freed blocks are
// discarded at the next journal commit; without the wait that work would
// stall the fdatasyncs of the next round.
void RemoveAndSettle(const std::string& dir) {
  std::filesystem::remove_all(dir);
  const int fd = open(std::filesystem::path(dir).parent_path().c_str(),
                      O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

// One round: setup, measured phase, crash, recovery, read-back.
bool RunRound(RunState* run, int round, uint32_t schedule, bool traced,
              Totals* totals) {
  const Spec& spec = *run->spec;
  const std::string dir = run->dir + "/round" + std::to_string(round);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  TimingSink timing_sink;
  finelog::DurableSink durable_sink;
  finelog::LogSink* sink =
      traced ? static_cast<finelog::LogSink*>(&timing_sink) : &durable_sink;
  SpanLog harness;

  auto fail = [&](const std::string& what) {
    run->error = spec.name + std::string(" round ") + std::to_string(round) +
                 ": " + what;
    return false;
  };

  SetPhase("setup");
  const int64_t setup0 = NowNs();
  std::unique_ptr<System> system;
  {
    TraceScope scope(traced ? &harness : nullptr, 0);
    ApiSpan span(SpanKind::kCreate, 0);
    auto created = System::Create(MakeConfig(spec, spec.mode, sink, dir));
    if (!created.ok()) return fail("System::Create: " + created.status().ToString());
    system = std::move(created).value();
  }
  Expected expected(size_t{spec.db_pages} * kObjectsPerPage);
  std::vector<Rng> rngs = SeedStreams(spec, run->seed, schedule);
  std::string err = RunPhase(spec, system.get(), &expected, &rngs,
                             spec.warmup, spec.warmup_txns, 0, nullptr,
                             nullptr);
  if (!err.empty()) return fail("warm-up: " + err);
  totals->setup_s.push_back(static_cast<double>(NowNs() - setup0) / 1e9);

  SetPhase("measured");
  std::vector<SpanLog> spans(traced ? spec.clients : 0);
  for (SpanLog& log : spans) {
    // Begin, the operations, Commit and its Sync, with room for retries:
    // growing the log inside the measured phase would inflate the overhead.
    log.Reserve(size_t{spec.round_txns} * (kOpsPerTxn + 4));
  }
  std::vector<LoopStats> stats;
  timing_sink.TakeOrphans();
  const Counters before = Snapshot(*system);
  const int64_t t0 = NowNs();
  err = RunPhase(spec, system.get(), &expected, &rngs, spec.gen,
                 spec.round_txns, spec.warmup_txns,
                 traced ? &spans : nullptr, &stats);
  const int64_t t1 = NowNs();
  if (!err.empty()) return fail(err);
  const Counters after = Snapshot(*system);
  AddDiff(before, after, &totals->counters);

  uint64_t committed = 0;
  std::vector<double> round_txn_ns, round_commit_ns;
  for (LoopStats& s : stats) {
    round_txn_ns.insert(round_txn_ns.end(), s.txn_ns.begin(), s.txn_ns.end());
    round_commit_ns.insert(round_commit_ns.end(), s.commit_ns.begin(),
                           s.commit_ns.end());
    committed += s.committed;
    totals->committed_writes += s.committed_writes;
    totals->aborts += s.aborts;
    totals->would_blocks += s.would_blocks;
    run->read_mismatches += s.read_mismatches;
    totals->txn_ns.insert(totals->txn_ns.end(), s.txn_ns.begin(),
                          s.txn_ns.end());
    totals->commit_ns.insert(totals->commit_ns.end(), s.commit_ns.begin(),
                             s.commit_ns.end());
  }
  totals->committed += committed;
  totals->attempted += uint64_t{spec.clients} * spec.round_txns;
  totals->txn_per_s.push_back(static_cast<double>(committed) * 1e9 /
                              static_cast<double>(t1 - t0));
  totals->txn_p50_ms.push_back(Percentile(round_txn_ns, 0.5) / 1e6);
  totals->commit_p50_ms.push_back(Percentile(round_commit_ns, 0.5) / 1e6);
  totals->busy_s += static_cast<double>(t1 - t0) / 1e9 *
                    (spec.mode == ExecMode::kRealClock ? spec.clients : 1);
  if (traced) {
    for (SpanLog& log : spans) TakeSpans(run, round, log.spans(), true, totals);
    TakeSpans(run, round, timing_sink.TakeOrphans(), true, totals);
  }
  // Under this flush policy every commit is its own fdatasync; fewer syncs
  // than commits means a commit returned before it was durable.
  if (spec.mode == ExecMode::kRealClock &&
      Get(after, "sink.syncs") - Get(before, "sink.syncs") <
          static_cast<double>(committed)) {
    return fail("DurableSink::sync_count() grew by less than the commits");
  }

  Status s = CrashAndRecover(system.get(), traced, &harness, totals);
  if (!s.ok()) return fail("recovery: " + s.ToString());
  SetPhase("verify");
  const int64_t verify0 = NowNs();
  std::vector<std::string> lost;
  s = VerifyRecovered(system.get(), expected, &totals->checked, &lost);
  if (!s.ok()) return fail("read-back after recovery: " + s.ToString());
  std::printf("round %d (schedule %u%s): setup_s %.4f txn_per_s %.1f "
              "recovery_s %.4f verify_s %.4f lost_commits %zu",
              round, schedule, traced ? ", traced" : "",
              totals->setup_s.back(), totals->txn_per_s.back(),
              totals->recovery_s.back(),
              static_cast<double>(NowNs() - verify0) / 1e9, lost.size());
  for (const std::string& id : lost) std::printf(" %s", id.c_str());
  std::printf("\n");
  totals->lost.insert(totals->lost.end(), lost.begin(), lost.end());
  ++totals->rounds;

  if (traced) TakeSpans(run, round, harness.spans(), false, totals);
  system.reset();
  RemoveAndSettle(dir);
  return true;
}

// local_commit runs on the real clock, which has no simulated cost; its
// sim_ms_per_txn replays the start of the same schedule in simulated mode.
bool SimReplayMsPerTxn(RunState* run, double* ms_per_txn) {
  const Spec& spec = *run->spec;
  const std::string dir = run->dir + "/replay";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  finelog::DurableSink sink;
  auto created =
      System::Create(MakeConfig(spec, ExecMode::kSimulated, &sink, dir));
  if (!created.ok()) {
    run->error = std::string(spec.name) + " simulated replay: " +
                 created.status().ToString();
    return false;
  }
  std::unique_ptr<System> system = std::move(created).value();
  Expected expected(size_t{spec.db_pages} * kObjectsPerPage);
  std::vector<Rng> rngs = SeedStreams(spec, run->seed, 0);
  std::string err = RunPhase(spec, system.get(), &expected, &rngs,
                             spec.warmup, spec.warmup_txns, 0, nullptr,
                             nullptr);
  const uint64_t txns = std::min<uint64_t>(spec.round_txns, 200);
  const uint64_t t0 = system->clock().now_us();
  std::vector<LoopStats> stats;
  if (err.empty()) {
    err = RunPhase(spec, system.get(), &expected, &rngs, spec.gen, txns,
                   spec.warmup_txns, nullptr, &stats);
  }
  if (!err.empty()) {
    run->error = std::string(spec.name) + " simulated replay: " + err;
    return false;
  }
  uint64_t committed = 0;
  for (const LoopStats& s : stats) {
    committed += s.committed;
    run->read_mismatches += s.read_mismatches;
  }
  *ms_per_txn = static_cast<double>(system->clock().now_us() - t0) / 1e3 /
                static_cast<double>(std::max<uint64_t>(committed, 1));
  system.reset();
  RemoveAndSettle(dir);
  return true;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB.
}

double PerTxn(const Totals& t, double v) {
  return t.committed == 0 ? 0.0 : v / static_cast<double>(t.committed);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<double> SpanTimes(const Totals& t, SpanKind kind) {
  return t.span_us[static_cast<size_t>(kind)];
}

// The value of the best quarter of the rounds (the 75th percentile of a rate,
// the 25th of a time). Other tenants of the host disk slow down stretches of
// a run by up to 10x, for longer than half of it at times; the best quarter
// of rounds still reflects the program, where a median would not.
double BestQuartile(std::vector<double> per_round, bool higher_is_better) {
  return Percentile(per_round, higher_is_better ? 0.75 : 0.25);
}

std::vector<Metric> EndToEnd(const Totals& t) {
  const double attempts = static_cast<double>(t.committed + t.aborts);
  return {
      {"txn_per_s", BestQuartile(t.txn_per_s, true), "txn/s"},
      {"txn_p50_ms", BestQuartile(t.txn_p50_ms, false), "ms"},
      {"commit_p50_ms", BestQuartile(t.commit_p50_ms, false), "ms"},
      {"commit_ratio", Ratio(static_cast<double>(t.committed), attempts),
       "fraction"},
      {"recovered_ok_ratio",
       Ratio(static_cast<double>(t.checked - t.lost.size()),
             static_cast<double>(t.checked)),
       "fraction"},
      {"recovery_s", BestQuartile(t.recovery_s, false), "s"},
      {"setup_s", BestQuartile(t.setup_s, false), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const Totals& t, const Totals& untraced,
                             double sim_ms_per_txn) {
  const Counters& c = t.counters;
  auto per_txn = [&](const std::string& name) {
    return PerTxn(t, Get(c, name));
  };
  std::vector<double> begin = SpanTimes(t, SpanKind::kBegin);
  std::vector<double> read = SpanTimes(t, SpanKind::kRead);
  std::vector<double> write = SpanTimes(t, SpanKind::kWrite);
  std::vector<double> write99 = write;
  std::vector<double> commit_self = t.commit_self_us;
  std::vector<double> abort = SpanTimes(t, SpanKind::kAbort);
  std::vector<double> client_sync = SpanTimes(t, SpanKind::kSyncClientLog);
  std::vector<double> client_sync99 = client_sync;
  std::vector<double> storage_sync = SpanTimes(t, SpanKind::kSyncStorage);
  double client_sync_total = 0;
  for (double us : client_sync) client_sync_total += us * 1e3;

  const double lock_hits = Get(c, "client.lock_hits");
  const double lock_misses = Get(c, "client.lock_misses");
  const double accesses = Get(c, "client.reads") + Get(c, "client.writes");
  const double callbacks =
      Get(c, "server.callbacks_object") + Get(c, "server.callbacks_page");
  // Server pool lookups, estimated: every lock request, page fetch and
  // shipped copy reads the server's copy of its page.
  const double pool_accesses = Get(c, "server.lock_requests") +
                               Get(c, "server.page_fetches") +
                               Get(c, "server.pages_merged");
  const double user_bytes =
      static_cast<double>(t.committed_writes) * kObjectSize;
  const double bytes_written = Get(c, "log.client_bytes") +
                               Get(c, "log.server_bytes") +
                               2.0 * Get(c, "disk.writes") * kPageSize;
  // The p99s do not repeat within a tenth across seeds, so they are
  // reported here, from the untraced rounds, rather than end to end.
  std::vector<double> txn99 = untraced.txn_ns, commit99 = untraced.commit_ns;
  const double traced_tps = BestQuartile(t.txn_per_s, true);
  const double untraced_tps = BestQuartile(untraced.txn_per_s, true);
  return {
      // Constant on local_commit (one 4 ms log force per commit), so it is
      // not an end-to-end metric.
      {"sim_ms_per_txn", sim_ms_per_txn, "ms"},
      {"txn_p99_ms", Percentile(txn99, 0.99) / 1e6, "ms"},
      {"commit_p99_ms", Percentile(commit99, 0.99) / 1e6, "ms"},
      {"client.begin_us_p50", Percentile(begin, 0.50), "us"},
      {"client.read_us_p50", Percentile(read, 0.50), "us"},
      {"client.write_us_p50", Percentile(write, 0.50), "us"},
      {"client.write_us_p99", Percentile(write99, 0.99), "us"},
      {"client.commit_self_us_p50", Percentile(commit_self, 0.50), "us"},
      {"client.abort_us_p50", Percentile(abort, 0.50), "us"},
      {"client.lock_hit_ratio", Ratio(lock_hits, lock_hits + lock_misses),
       "fraction"},
      {"client.page_hit_ratio",
       accesses == 0 ? 1.0 : 1.0 - Get(c, "client.page_fetches") / accesses,
       "fraction"},
      {"client.would_block_per_txn",
       PerTxn(t, static_cast<double>(t.would_blocks)), "count"},
      {"client.abort_ratio",
       Ratio(static_cast<double>(t.aborts),
             static_cast<double>(t.committed + t.aborts)),
       "fraction"},
      {"client.recovery_s", BestQuartile(t.client_recovery_s, false), "s"},
      {"log.sync_us_p50", Percentile(client_sync, 0.50), "us"},
      {"log.sync_us_p99", Percentile(client_sync99, 0.99), "us"},
      {"log.forces_per_txn", per_txn("log.client_forces"), "count"},
      {"log.bytes_per_txn", per_txn("log.client_bytes"), "B"},
      {"log.sync_share", Ratio(client_sync_total, t.busy_s * 1e9),
       "fraction"},
      {"log.server_forces_per_txn", per_txn("log.server_forces"), "count"},
      {"net.msgs_per_txn", per_txn("net.msgs"), "count"},
      {"net.bytes_per_txn", per_txn("net.bytes"), "B"},
      {"net.items_per_msg", Ratio(Get(c, "net.items"), Get(c, "net.msgs")),
       "count"},
      {"net.lock_requests_per_txn", per_txn("net.lock_requests"), "count"},
      {"net.page_fetches_per_txn", per_txn("net.page_fetches"), "count"},
      {"net.page_ships_per_txn", per_txn("net.page_ships"), "count"},
      {"net.callbacks_per_txn", per_txn("net.callbacks"), "count"},
      {"net.frames_per_txn", per_txn("transport.frames"), "count"},
      {"lock.callbacks_per_txn", PerTxn(t, callbacks), "count"},
      {"lock.callback_grant_ratio",
       callbacks == 0 ? 1.0
                      : 1.0 - Get(c, "server.callbacks_denied") / callbacks,
       "fraction"},
      {"lock.deescalations_per_txn", per_txn("server.deescalations"),
       "count"},
      {"lock.escalations_per_txn", per_txn("client.escalations"), "count"},
      {"server.merges_per_txn", per_txn("server.pages_merged"), "count"},
      {"server.replacement_records_per_txn",
       per_txn("server.replacement_records"), "count"},
      {"server.recovery_s", BestQuartile(t.server_recovery_s, false), "s"},
      {"server.pages_recovered", Median(t.pages_recovered), "count"},
      {"recovery.msgs", Median(t.recovery_msgs), "count"},
      {"buffer.server_hit_ratio",
       pool_accesses == 0
           ? 1.0
           : std::max(0.0, 1.0 - Get(c, "disk.reads") / pool_accesses),
       "fraction"},
      {"storage.sync_us_p50", Percentile(storage_sync, 0.50), "us"},
      {"storage.disk_reads_per_txn", per_txn("disk.reads"), "count"},
      {"storage.disk_writes_per_txn", per_txn("disk.writes"), "count"},
      {"storage.write_amp", Ratio(bytes_written, user_bytes), "ratio"},
      {"recovery.lost_commits", static_cast<double>(t.lost.size()), "count"},
      {"trace.txn_per_s_traced", traced_tps, "txn/s"},
      {"trace.txn_per_s_untraced", untraced_tps, "txn/s"},
      {"trace.overhead_pct",
       untraced_tps == 0 ? 0.0 : 100.0 * (untraced_tps - traced_tps) /
                                     untraced_tps,
       "%"},
  };
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: finelog_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --dir <workspace> "
               "[--trace-out <file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (args.count("--workload") == 0 || args.count("--dir") == 0) {
    return Usage();
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args["--workload"] == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args["--workload"].c_str());
    return Usage();
  }
  RunState run;
  run.spec = spec;
  run.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  run.dir = args["--dir"];
  const double seconds =
      args.count("--seconds") != 0 ? std::atof(args["--seconds"].c_str()) : 10;
  const bool trace = args["--trace"] == "1";
  std::filesystem::create_directories(run.dir);

  std::printf(
      "perfbench: workload=%s mode=%s clients=%u threads=%u db_pages=%u "
      "client_cache_pages=%u server_pool_pages=%u warmup_txns_per_client=%u "
      "round_txns_per_client=%u schedules=%u seed=%llu trace=%d "
      "flush=DurableSink("
      "fdatasync),group_commit_window=0,max_batch_items=1\n",
      spec->name,
      spec->mode == ExecMode::kRealClock ? "real-clock" : "simulated",
      spec->clients,
      spec->mode == ExecMode::kRealClock ? spec->clients + 1 : 1,
      spec->db_pages, spec->client_cache_pages, spec->server_pool_pages,
      spec->warmup_txns, spec->round_txns, spec->schedules,
      static_cast<unsigned long long>(run.seed), trace ? 1 : 0);
  std::fflush(stdout);

  Totals traced, untraced;
  bool ok = true;
  {
    Watchdog watchdog(*spec);
    const int64_t start_ns = NowNs();
    auto elapsed_s = [&] {
      return static_cast<double>(NowNs() - start_ns) / 1e9;
    };
    for (int round = 0, cycles = 1; ok; ++cycles) {
      // A host stalled for minutes could push even one cycle past the run's
      // time limit; cutting the cycle short then keeps the run alive, at the
      // cost of per-transaction counts that no longer repeat exactly.
      for (uint32_t schedule = 0; ok && schedule < spec->schedules &&
                                  elapsed_s() < kLastRoundStartSeconds;
           ++schedule) {
        // Traced and untraced rounds of a schedule alternate in order, so
        // neither side always runs right after the other.
        const bool traced_first = schedule % 2 == 0;
        if (trace) ok = RunRound(&run, round++, schedule, traced_first,
                                 traced_first ? &traced : &untraced);
        if (ok) ok = RunRound(&run, round++, schedule, trace && !traced_first,
                              trace && !traced_first ? &traced : &untraced);
      }
      if (elapsed_s() * (cycles + 1) / cycles > seconds) break;
    }
    double sim_ms = 0.0;
    if (ok && trace && spec->mode == ExecMode::kSimulated) {
      sim_ms = PerTxn(traced, Get(traced.counters, "sim.us")) / 1e3;
    } else if (ok && trace) {
      SetPhase("simulated replay");
      ok = SimReplayMsPerTxn(&run, &sim_ms);
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: %s\n", run.error.c_str());
      return 1;
    }
    if (trace && args.count("--trace-out") != 0 &&
        !WriteSpans(args["--trace-out"], run.kept_spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args["--trace-out"].c_str());
      return 1;
    }

    std::vector<Metric> metrics =
        trace ? PerLayer(traced, untraced, sim_ms) : EndToEnd(untraced);
    const Totals& all = trace ? traced : untraced;
    std::printf("rounds=%d committed=%llu aborts=%llu read_mismatches=%llu "
                "lost_commits=%llu checked=%llu\n",
                traced.rounds + untraced.rounds,
                static_cast<unsigned long long>(all.committed),
                static_cast<unsigned long long>(all.aborts),
                static_cast<unsigned long long>(run.read_mismatches),
                static_cast<unsigned long long>(all.lost.size()),
                static_cast<unsigned long long>(all.checked));
    if (!trace) {
      // Reported in the JSON through never-zero equivalents
      // (commit_ratio, recovered_ok_ratio).
      std::printf("metric abort_ratio %.6f fraction\n",
                  Ratio(static_cast<double>(all.aborts),
                        static_cast<double>(all.committed + all.aborts)));
      std::printf("metric lost_commits %llu count\n",
                  static_cast<unsigned long long>(all.lost.size()));
    }
    for (const Metric& m : metrics) {
      std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    // A failed call or recovery ends the run without a result; what is left
    // to judge is every read the closed loop checked.
    json += run.read_mismatches == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(all.attempted);
    json += ", \"failed\": " + std::to_string(all.attempted - all.committed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) json += ", ";
      json += "\"" + metrics[i].name + "\": {\"value\": " +
              JsonNumber(metrics[i].value) + ", \"unit\": \"" +
              metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }
  std::filesystem::remove_all(run.dir);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
