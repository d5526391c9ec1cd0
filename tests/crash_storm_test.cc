// Crash storms: multi-round randomized workloads with repeated crash +
// recovery cycles -- the harness that hardened the recovery protocol.
// Each round runs a burst of interleaved transactions, crashes a randomized
// subset of nodes (possibly everything), recovers, and continues. The
// invariants, checked continuously and at the end:
//   * reads never observe a value other than the oracle's expected one,
//   * after the final quiesce, every committed update is present and every
//     uncommitted one absent.

#include <gtest/gtest.h>

#include <string_view>

#include "core/oracle.h"
#include "core/system.h"
#include "core/workload.h"
#include "tests/test_util.h"
#include "util/fault.h"

namespace finelog {
namespace {

enum class CrashKind { kClients, kServer, kComplex, kEverything };

// gtest lists each case with the raw bytes of its StormCase, which start with
// the `name` pointer. A name kept as an ordinary string literal therefore
// gives the case a different listed ID on every run, since the loader maps
// the binary at a random address. The names live instead in one 64 KiB-aligned
// pool: the loader keeps that alignment, so the low 16 bits of every name
// pointer -- all of the pointer a truncated test listing shows -- are fixed.
// The 0xA200 offset and the order of the list keep the IDs the storms have
// been listed under; append new names at the end.
struct alignas(1 << 16) StormNamePool {
  char pad[0xA200];
  char names[512];

  // The pool's copy of `name`; not finding it fails the build.
  constexpr const char* Find(std::string_view name) const {
    for (size_t i = 0; names[i] != '\0';) {
      std::string_view entry(names + i);
      if (entry == name) return names + i;
      i += entry.size() + 1;
    }
    throw "storm name missing from the pool";
  }
};

constexpr StormNamePool kStormNames = {
    {},
    "clients_uniform\0clients_hotcold\0clients_shared\0"
    "server_uniform\0server_hotcold\0server_shared\0"
    "complex_uniform\0complex_hotcold\0complex_shared\0complex_private\0"
    "everything_uniform\0everything_hotcold\0everything_shared\0"
    "pagelock_complex\0token_server\0token_complex\0"
    "reserve_complex\0reserve_everything\0"
    "lazy_uniform\0lazy_hotcold\0lazy_shared\0lazy_private\0lazy_token\0"
    "lazy_reserve\0"};

struct StormCase {
  const char* name;
  CrashKind kind;
  AccessPattern pattern;
  uint64_t seed;
  LockGranularity granularity = LockGranularity::kObject;
  SamePageUpdatePolicy same_page = SamePageUpdatePolicy::kMergeCopies;
  double resize_reserve = 0.0;
};

std::string StormName(const ::testing::TestParamInfo<StormCase>& info) {
  return std::string(info.param.name) + "_s" + std::to_string(info.param.seed);
}

class CrashStormTest : public ::testing::TestWithParam<StormCase> {};

TEST_P(CrashStormTest, SurvivesRepeatedCrashes) {
  const StormCase& sc = GetParam();
  SystemConfig config = SmallConfig(std::string("storm_") + sc.name + "_" +
                                    std::to_string(sc.seed));
  config.num_clients = 4;
  config.client_cache_pages = 6;
  config.lock_granularity = sc.granularity;
  config.same_page_policy = sc.same_page;
  config.resize_reserve = sc.resize_reserve;
  auto system = System::Create(config).value();

  Oracle oracle;
  WorkloadOptions options;
  options.txns_per_client = 14;
  options.ops_per_txn = 5;
  options.write_fraction = 0.6;
  options.pattern = sc.pattern;
  options.seed = sc.seed;
  Workload workload(system.get(), &oracle, options);

  Rng rng(sc.seed * 7919 + 13);
  for (int round = 0; round < 8; ++round) {
    auto done = workload.RunSteps(15 + rng.Uniform(45));
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    if (done.value()) break;
    if (round % 2 == 1) continue;

    bool crash_clients = sc.kind != CrashKind::kServer;
    bool crash_server = sc.kind != CrashKind::kClients;
    if (crash_clients) {
      size_t victims = sc.kind == CrashKind::kEverything
                           ? system->num_clients()
                           : 1 + rng.Uniform(2);
      for (size_t v = 0; v < victims; ++v) {
        size_t i = sc.kind == CrashKind::kEverything
                       ? v
                       : rng.Uniform(system->num_clients());
        if (system->client(i).crashed()) continue;
        ASSERT_TRUE(system->CrashClient(i).ok());
        oracle.CrashClient(static_cast<ClientId>(i));
        workload.OnClientCrashed(i);
      }
    }
    if (crash_server) {
      ASSERT_TRUE(system->CrashServer().ok());
    }
    ASSERT_TRUE(system->RecoverAll().ok());
    for (size_t i = 0; i < system->num_clients(); ++i) {
      if (!system->client(i).crashed()) workload.OnClientRecovered(i);
    }
    EXPECT_EQ(workload.stats().read_mismatches, 0u)
        << "stale read after round " << round;
  }

  ASSERT_TRUE(workload.Run().ok());
  EXPECT_EQ(workload.stats().read_mismatches, 0u);
  EXPECT_GT(workload.stats().commits, 0u);
  ASSERT_TRUE(system->FlushEverything().ok());
  auto mismatches = oracle.Verify(system.get(), 0);
  ASSERT_TRUE(mismatches.ok()) << mismatches.status().ToString();
  EXPECT_EQ(mismatches.value(), 0u);
}

constexpr StormCase kStorms[] = {
    {kStormNames.Find("clients_uniform"), CrashKind::kClients,
     AccessPattern::kUniform, 301},
    {kStormNames.Find("clients_hotcold"), CrashKind::kClients,
     AccessPattern::kHotCold, 302},
    {kStormNames.Find("clients_shared"), CrashKind::kClients,
     AccessPattern::kSharedHot, 303},
    {kStormNames.Find("server_uniform"), CrashKind::kServer,
     AccessPattern::kUniform, 304},
    {kStormNames.Find("server_hotcold"), CrashKind::kServer,
     AccessPattern::kHotCold, 305},
    {kStormNames.Find("server_shared"), CrashKind::kServer,
     AccessPattern::kSharedHot, 306},
    {kStormNames.Find("complex_uniform"), CrashKind::kComplex,
     AccessPattern::kUniform, 307},
    {kStormNames.Find("complex_hotcold"), CrashKind::kComplex,
     AccessPattern::kHotCold, 308},
    {kStormNames.Find("complex_shared"), CrashKind::kComplex,
     AccessPattern::kSharedHot, 309},
    {kStormNames.Find("complex_private"), CrashKind::kComplex,
     AccessPattern::kPrivate, 310},
    {kStormNames.Find("everything_uniform"), CrashKind::kEverything,
     AccessPattern::kUniform, 311},
    {kStormNames.Find("everything_hotcold"), CrashKind::kEverything,
     AccessPattern::kHotCold, 312},
    {kStormNames.Find("everything_shared"), CrashKind::kEverything,
     AccessPattern::kSharedHot, 313},
    {kStormNames.Find("complex_hotcold"), CrashKind::kComplex,
     AccessPattern::kHotCold, 314},
    {kStormNames.Find("complex_shared"), CrashKind::kComplex,
     AccessPattern::kSharedHot, 315},
    {kStormNames.Find("everything_uniform"), CrashKind::kEverything,
     AccessPattern::kUniform, 316},
    // Baseline policies under the harshest crash kinds. (The page-locking
    // baseline is exercised up to complex crashes; the all-nodes-at-once
    // storm is a documented limitation of that baseline's approximated
    // recovery -- see DESIGN.md section 8, item 14.)
    {kStormNames.Find("pagelock_complex"), CrashKind::kComplex,
     AccessPattern::kHotCold, 317, LockGranularity::kPage},
    {kStormNames.Find("token_server"), CrashKind::kServer,
     AccessPattern::kSharedHot, 319, LockGranularity::kObject,
     SamePageUpdatePolicy::kUpdateToken},
    {kStormNames.Find("token_complex"), CrashKind::kComplex,
     AccessPattern::kSharedHot, 320, LockGranularity::kObject,
     SamePageUpdatePolicy::kUpdateToken},
    // Footnote-3 reservation active during crash storms.
    {kStormNames.Find("reserve_complex"), CrashKind::kComplex,
     AccessPattern::kHotCold, 321, LockGranularity::kObject,
     SamePageUpdatePolicy::kMergeCopies, 1.0},
    {kStormNames.Find("reserve_everything"), CrashKind::kEverything,
     AccessPattern::kSharedHot, 322, LockGranularity::kObject,
     SamePageUpdatePolicy::kMergeCopies, 1.0},
};

INSTANTIATE_TEST_SUITE_P(Storms, CrashStormTest, ::testing::ValuesIn(kStorms),
                         StormName);

// The same storm with instant restart on (DESIGN.md section 18): after every
// server crash the workload resumes against an unrecovered backlog, with
// three extra mid-recovery hazards layered in round-robin --
//   * an armed recovery.server.lazy_repair interruption (one repair degrades
//     to WouldBlock(kRecoveringPage); the workload's retry absorbs it),
//   * a second crash of everything while pages are still unrecovered,
//   * a partial drain (budget 1-3) so later rounds crash a half-repaired
//     backlog.
// The oracle invariants are identical: no stale read ever, and zero
// divergence after the final quiesce.
class InstantRestartStormTest : public ::testing::TestWithParam<StormCase> {};

TEST_P(InstantRestartStormTest, SurvivesRepeatedCrashesMidRecovery) {
  const StormCase& sc = GetParam();
  FaultInjector injector;
  SystemConfig config = SmallConfig(std::string("lazystorm_") + sc.name + "_" +
                                    std::to_string(sc.seed));
  config.num_clients = 4;
  config.client_cache_pages = 6;
  config.lock_granularity = sc.granularity;
  config.same_page_policy = sc.same_page;
  config.resize_reserve = sc.resize_reserve;
  config.instant_restart = true;
  config.fault_injector = &injector;
  auto system = System::Create(config).value();

  Oracle oracle;
  WorkloadOptions options;
  options.txns_per_client = 14;
  options.ops_per_txn = 5;
  options.write_fraction = 0.6;
  options.pattern = sc.pattern;
  options.seed = sc.seed;
  Workload workload(system.get(), &oracle, options);

  auto crash_everything = [&] {
    for (size_t i = 0; i < system->num_clients(); ++i) {
      if (system->client(i).crashed()) continue;
      ASSERT_TRUE(system->CrashClient(i).ok());
      oracle.CrashClient(static_cast<ClientId>(i));
      workload.OnClientCrashed(i);
    }
    ASSERT_TRUE(system->CrashServer().ok());
  };
  auto recover_all = [&] {
    ASSERT_TRUE(system->RecoverAll().ok());
    for (size_t i = 0; i < system->num_clients(); ++i) {
      if (!system->client(i).crashed()) workload.OnClientRecovered(i);
    }
  };

  Rng rng(sc.seed * 104729 + 7);
  for (int round = 0; round < 8; ++round) {
    auto done = workload.RunSteps(15 + rng.Uniform(45));
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    if (done.value()) break;
    if (round % 2 == 1) continue;

    crash_everything();
    recover_all();
    switch (round / 2 % 3) {
      case 0:
        // Interrupt the next lazy repair mid-stream.
        injector.ArmPoint("recovery.server.lazy_repair", 1,
                          FaultAction::kError, 0.5);
        break;
      case 1:
        // Second crash while N pages are still unrecovered.
        if (system->RecoveryPagesPending() > 0) {
          crash_everything();
          recover_all();
        }
        break;
      case 2: {
        // Partial drain: later rounds crash a half-repaired backlog.
        Status st = system->DrainRecovery(1 + rng.Uniform(3));
        ASSERT_TRUE(st.ok() || st.IsWouldBlock()) << st.ToString();
        break;
      }
    }
    EXPECT_EQ(workload.stats().read_mismatches, 0u)
        << "stale read after round " << round;
  }

  ASSERT_TRUE(workload.Run().ok());
  EXPECT_EQ(workload.stats().read_mismatches, 0u);
  EXPECT_GT(workload.stats().commits, 0u);
  injector.Disarm();  // An unconsumed interruption must not block the drain.
  ASSERT_TRUE(system->DrainRecovery().ok());
  EXPECT_EQ(system->RecoveryPagesPending(), 0u);
  ASSERT_TRUE(system->FlushEverything().ok());
  auto mismatches = oracle.Verify(system.get(), 0);
  ASSERT_TRUE(mismatches.ok()) << mismatches.status().ToString();
  EXPECT_EQ(mismatches.value(), 0u);
}

constexpr StormCase kLazyStorms[] = {
    {kStormNames.Find("lazy_uniform"), CrashKind::kEverything,
     AccessPattern::kUniform, 701},
    {kStormNames.Find("lazy_hotcold"), CrashKind::kEverything,
     AccessPattern::kHotCold, 702},
    {kStormNames.Find("lazy_shared"), CrashKind::kEverything,
     AccessPattern::kSharedHot, 703},
    {kStormNames.Find("lazy_private"), CrashKind::kEverything,
     AccessPattern::kPrivate, 704},
    {kStormNames.Find("lazy_token"), CrashKind::kEverything,
     AccessPattern::kSharedHot, 705, LockGranularity::kObject,
     SamePageUpdatePolicy::kUpdateToken},
    {kStormNames.Find("lazy_reserve"), CrashKind::kEverything,
     AccessPattern::kHotCold, 706, LockGranularity::kObject,
     SamePageUpdatePolicy::kMergeCopies, 1.0},
};

INSTANTIATE_TEST_SUITE_P(LazyStorms, InstantRestartStormTest,
                         ::testing::ValuesIn(kLazyStorms), StormName);

}  // namespace
}  // namespace finelog
