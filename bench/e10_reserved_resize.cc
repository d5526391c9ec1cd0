// E10 -- Ablation of the footnote-3 extension: reserved-capacity objects
// make size changes mergeable.
//
// The paper (Section 3.1, footnote 3) notes that object size modifications
// "could be made mergeable by ... reserving in advance enough space" but
// leaves it unexplored. This experiment implements it: each client
// repeatedly resizes its own objects on shared pages. Without reservation
// every resize takes a page-level exclusive lock (structural), serializing
// the clients; with reservation the resizes stay in place under object
// locks and proceed concurrently. The price is page space (the reserve).

#include <cstdio>

#include "bench/bench_util.h"

using namespace finelog;
using namespace finelog::bench;

namespace {

void RunOne(double reserve, uint32_t clients) {
  SystemConfig config = BenchConfig("e10");
  config.num_clients = clients;
  config.resize_reserve = reserve;
  config.preloaded_pages = 4;
  auto system = MustCreate(config);

  // Setup: each client creates 4 documents on the shared page set.
  const int kDocs = 4;
  std::vector<std::vector<ObjectId>> docs(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    TxnId txn = system->client(c).Begin().value();
    for (int d = 0; d < kDocs; ++d) {
      auto oid = system->client(c).Create(
          txn, static_cast<PageId>(d % 4), std::string(40, 'a' + c));
      if (oid.ok()) docs[c].push_back(oid.value());
    }
    (void)system->client(c).Commit(txn);
  }

  // Interleaved resize rounds: grow/shrink within 1.5x of the base size.
  const int kRounds = 20;
  uint64_t stalls = 0;
  uint64_t commits = 0;
  uint64_t time0 = system->clock().now_us();
  for (int round = 0; round < kRounds; ++round) {
    std::vector<TxnId> txns(clients);
    for (uint32_t c = 0; c < clients; ++c) {
      txns[c] = system->client(c).Begin().value();
    }
    for (int d = 0; d < kDocs; ++d) {
      for (uint32_t c = 0; c < clients; ++c) {
        if (d >= static_cast<int>(docs[c].size())) continue;
        size_t size = 30 + ((round * 7 + c * 3 + d) % 30);
        Status st = system->client(c).Resize(txns[c], docs[c][d],
                                             std::string(size, 'r'));
        for (int retry = 0; st.IsWouldBlock() && retry < 50; ++retry) {
          ++stalls;
          st = system->client(c).Resize(txns[c], docs[c][d],
                                        std::string(size, 'r'));
        }
      }
    }
    for (uint32_t c = 0; c < clients; ++c) {
      if (system->client(c).Commit(txns[c]).ok()) ++commits;
    }
  }
  double sim_s = (system->clock().now_us() - time0) / 1e6;
  std::printf("%8.2f %8u %8llu %8llu %14llu %11.1f\n", reserve, clients,
              (unsigned long long)commits, (unsigned long long)stalls,
              (unsigned long long)system->metrics().Get(
                  Counter::kClientResizesInPlace),
              sim_s > 0 ? commits / sim_s : 0.0);
}

}  // namespace

int main() {
  std::printf("E10: resize contention with/without capacity reservation\n");
  std::printf("%8s %8s %8s %8s %14s %11s\n", "reserve", "clients", "commits",
              "stalls", "in_place", "txns/sim_s");
  for (uint32_t n : {2u, 4u}) {
    RunOne(0.0, n);
    RunOne(0.5, n);
    RunOne(1.0, n);
  }
  return 0;
}
