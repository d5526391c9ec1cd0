// E7 -- Log space management (Section 3.6).
//
// Claim: a client with a bounded private log stays live by asking the
// server to force the page with the minimum RedoLSN; the flush notification
// advances the DPT RedoLSN and unpins the log tail. The sweep shows the
// page-force overhead growing as the log shrinks, while every run completes
// the same transaction count.

#include <cstdio>

#include "bench/bench_util.h"

using namespace finelog;
using namespace finelog::bench;

namespace {

void RunOne(uint64_t capacity) {
  SystemConfig config = BenchConfig("e7");
  config.num_clients = 1;
  config.client_log_capacity = capacity;
  auto system = MustCreate(config);
  Client& c = system->client(0);
  const int kTxns = 300;

  uint64_t time0 = system->clock().now_us();
  int commits = 0;
  for (int i = 0; i < kTxns; ++i) {
    TxnId txn = c.Begin().value();
    ObjectId oid{static_cast<PageId>(i % 16), static_cast<SlotId>(i % 8)};
    Status w = c.Write(txn, oid, std::string(config.object_size, 'a' + i % 26));
    if (w.ok() && c.Commit(txn).ok()) {
      ++commits;
    } else if (!w.ok()) {
      (void)c.Abort(txn);
    }
  }
  double sim_s = (system->clock().now_us() - time0) / 1e6;
  const Metrics& m = system->metrics();
  std::printf("%10llu %8d %10llu %12llu %13llu %11.1f\n",
              (unsigned long long)capacity, commits,
              (unsigned long long)m.Get(Counter::kClientLogFullEvents),
              (unsigned long long)m.Get(Counter::kClientLogSpaceForces),
              (unsigned long long)m.Get(Counter::kServerDiskWrites),
              sim_s > 0 ? commits / sim_s : 0);
}

}  // namespace

int main() {
  std::printf("E7: bounded private log -- Section 3.6 protocol (300 txns)\n");
  std::printf("%10s %8s %10s %12s %13s %11s\n", "log_bytes", "commits",
              "log_fulls", "page_forces", "disk_writes", "txns/sim_s");
  RunOne(8 * 1024);
  RunOne(16 * 1024);
  RunOne(32 * 1024);
  RunOne(128 * 1024);
  RunOne(0);  // Unbounded.
  return 0;
}
