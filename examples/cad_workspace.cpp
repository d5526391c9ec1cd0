// CAD workspace: the workload class the paper's introduction motivates.
//
// A team of designers edits parts of one assembly. Parts are small objects
// packed many-to-a-page; designers repeatedly tweak *their own* parts, which
// land on the same pages as their colleagues' parts. Fine-granularity
// locking plus page-copy merging lets all designers keep editing the shared
// pages concurrently -- no update token ping-pong, no page-lock convoy --
// and every commit is a local log force on the designer's workstation.
//
//   ./build/examples/cad_workspace

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/system.h"

using namespace finelog;

namespace {

constexpr uint32_t kDesigners = 4;
constexpr uint32_t kPartsPerDesigner = 8;
constexpr int kEditRounds = 10;

// A "part": position + revision stamp, serialized into its object.
std::string EncodePart(uint32_t designer, int revision, uint32_t size) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "part d%u rev%03d x=%d y=%d", designer,
                revision, revision * 3, revision * 7);
  std::string value(size, ' ');
  std::string(buf).copy(value.data(), value.size());
  return value;
}

}  // namespace

int main() {
  SystemConfig config;
  config.dir = "/tmp/finelog_cad";
  std::filesystem::remove_all(config.dir);
  config.num_clients = kDesigners;
  config.preloaded_pages = 4;  // The whole assembly packs onto 4 pages.
  config.objects_per_page = kDesigners * kPartsPerDesigner / 4;

  auto system = System::Create(config).value();

  // Each designer's parts interleave across the shared assembly pages:
  // designer d owns slot s on page p whenever (p*slots + s) % kDesigners == d.
  auto part_of = [&](uint32_t designer, uint32_t k) {
    uint32_t flat = k * kDesigners + designer;
    return ObjectId{static_cast<PageId>(flat / config.objects_per_page),
                    static_cast<SlotId>(flat % config.objects_per_page)};
  };

  // Edit rounds: every designer updates every one of its parts, all rounds
  // interleaved. Same pages, different objects -- zero lock conflicts.
  uint64_t stalls = 0;
  for (int round = 0; round < kEditRounds; ++round) {
    std::vector<TxnId> txns;
    for (uint32_t d = 0; d < kDesigners; ++d) {
      txns.push_back(system->client(d).Begin().value());
    }
    for (uint32_t k = 0; k < kPartsPerDesigner; ++k) {
      for (uint32_t d = 0; d < kDesigners; ++d) {
        Status st = system->client(d).Write(
            txns[d], part_of(d, k), EncodePart(d, round, config.object_size));
        if (st.IsWouldBlock()) ++stalls;
      }
    }
    for (uint32_t d = 0; d < kDesigners; ++d) {
      if (!system->client(d).Commit(txns[d]).ok()) return 1;
    }
  }

  std::printf("%d edit rounds, %u designers on %u shared pages: %llu lock stalls\n",
              kEditRounds, kDesigners, config.preloaded_pages,
              (unsigned long long)stalls);

  // A reviewer (designer 0) walks the whole assembly and checks every part
  // carries the final revision -- the server merges whatever is still
  // outstanding in the editors' caches on demand.
  Client& reviewer = system->client(0);
  TxnId review = reviewer.Begin().value();
  int checked = 0;
  for (uint32_t d = 0; d < kDesigners; ++d) {
    for (uint32_t k = 0; k < kPartsPerDesigner; ++k) {
      auto part = reviewer.Read(review, part_of(d, k));
      if (!part.ok()) {
        std::fprintf(stderr, "review read failed: %s\n",
                     part.status().ToString().c_str());
        return 1;
      }
      std::string expected = EncodePart(d, kEditRounds - 1, config.object_size);
      if (part.value() != expected) {
        std::fprintf(stderr, "part d%u #%u stale!\n", d, k);
        return 1;
      }
      ++checked;
    }
  }
  (void)reviewer.Commit(review);
  std::printf("review pass: all %d parts at rev%03d\n", checked,
              kEditRounds - 1);
  // The review forced every designer's dirty copy back through the server,
  // where the divergent page copies were merged (Section 3.1).
  std::printf("callbacks during review: %llu, page copies merged: %llu\n",
              (unsigned long long)system->metrics().Get(
                  Counter::kServerCallbacksObject),
              (unsigned long long)system->metrics().Get(
                  Counter::kServerPagesMerged));
  return 0;
}
