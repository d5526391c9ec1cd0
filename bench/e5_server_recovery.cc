// E5 -- Server crash recovery with coordinated, per-client page recovery
// (Section 3.4, advantage 3: clients may recover the same page in parallel;
// advantage 5: private logs are never merged).
//
// N clients commit updates to disjoint objects of a shared page set and
// replace the pages; the server crashes before any flush. Restart must
// reconstruct the DCT from replacement records and coordinate every
// client's replay of its own log. We report the recovery message count,
// the number of coordinated (page, client) replays, and simulated time --
// which grows with the number of involved clients but involves no log
// merging (each replay reads exactly one private log).

#include <cstdio>

#include "bench/bench_util.h"

using namespace finelog;
using namespace finelog::bench;

namespace {

void RunOne(uint32_t clients, uint32_t shared_pages) {
  SystemConfig config = BenchConfig("e5");
  config.num_clients = clients;
  auto system = MustCreate(config);

  for (uint32_t i = 0; i < clients; ++i) {
    Client& c = system->client(i);
    TxnId txn = c.Begin().value();
    for (uint32_t pi = 0; pi < shared_pages; ++pi) {
      (void)c.Write(txn, ObjectId{PageId(pi), static_cast<SlotId>(i % 16)},
                    std::string(config.object_size, char('a' + i)));
    }
    (void)c.Commit(txn);
  }
  for (uint32_t i = 0; i < clients; ++i) {
    (void)system->client(i).ShipAllDirtyPages();
  }

  (void)system->CrashServer();
  uint64_t msgs0 = system->channel().total_messages();
  uint64_t time0 = system->clock().now_us();
  const Metrics& m = system->metrics();
  uint64_t sessions0 = m.Get(Counter::kServerCoordinatedPageRecoveries);
  uint64_t ordered0 = m.Get(Counter::kServerOrderedFetches);
  Status st = system->RecoverServer();
  if (!st.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", st.ToString().c_str());
    return;
  }
  std::printf(
      "%8u %7u %10llu %10llu %11llu %12llu\n", clients, shared_pages,
      (unsigned long long)(m.Get(Counter::kServerCoordinatedPageRecoveries) -
                           sessions0),
      (unsigned long long)(m.Get(Counter::kServerOrderedFetches) - ordered0),
      (unsigned long long)(system->channel().total_messages() - msgs0),
      (unsigned long long)(system->clock().now_us() - time0));
}

}  // namespace

int main() {
  std::printf("E5: server restart recovery, multi-client shared pages\n");
  std::printf("%8s %7s %10s %10s %11s %12s\n", "clients", "pages",
              "replays", "handshakes", "rec_msgs", "rec_sim_us");
  for (uint32_t n : {2u, 4u, 8u}) {
    RunOne(n, 4);
    RunOne(n, 16);
  }
  return 0;
}
