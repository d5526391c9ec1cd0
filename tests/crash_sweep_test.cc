// Crash-point sweep: systematic fault injection at every durability-critical
// I/O site (DESIGN.md "Fault model").
//
// One seeded workload is run once with an unarmed FaultInjector (a pure
// counting probe) to enumerate the M fail-point hits it performs. Then, for a
// strided sample of k in 1..M, the same workload is re-run against a fresh
// directory with a one-shot fault armed at global hit k -- a clean EIO, a
// torn write (a deterministic prefix of the payload reaches the file) or a
// short write. When the fault fires, every node is crashed on the spot,
// RecoverAll() runs, any in-doubt commit is settled by probing the database,
// the workload resumes to completion and the Oracle verifies that every
// committed update survived and no uncommitted one did.
//
// Two "teeth" tests prove the sweep can actually fail: deliberately broken
// recovery modes (trusting the log tail without the CRC scan; ignoring the
// doublewrite journal) must turn at least one swept crash point into a
// detected failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/system.h"
#include "core/workload.h"
#include "tests/test_util.h"
#include "util/fault.h"

namespace finelog {
namespace {

constexpr uint64_t kSeed = 4242;

// Small caches force client->server ships and server evictions, so the
// workload exercises every fail-point family: client log appends/forces,
// server replacement-log appends/forces, and journaled page writes.
SystemConfig SweepConfig(const std::string& dir, FaultInjector* injector) {
  SystemConfig config;
  config.dir = dir;
  config.num_clients = 3;
  config.page_size = 2048;
  config.num_pages = 64;
  config.preloaded_pages = 16;
  config.objects_per_page = 8;
  config.object_size = 64;
  config.client_cache_pages = 4;
  config.server_cache_pages = 8;
  config.fault_injector = injector;
  return config;
}

WorkloadOptions SweepOptions() {
  WorkloadOptions options;
  options.txns_per_client = 6;
  options.ops_per_txn = 4;
  options.write_fraction = 0.7;
  options.pattern = AccessPattern::kHotCold;
  options.seed = kSeed;
  return options;
}

// Reads one object through a fresh transaction on client 0, retrying lock
// conflicts. Used to settle in-doubt commits after recovery.
Result<std::string> ProbeRead(System* system, ObjectId oid) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto txn = system->client(0).Begin();
    if (!txn.ok()) return txn.status();
    auto got = system->client(0).Read(txn.value(), oid);
    if (got.ok()) {
      FINELOG_RETURN_IF_ERROR(system->client(0).Commit(txn.value()));
      return got;
    }
    FINELOG_RETURN_IF_ERROR(system->client(0).Abort(txn.value()));
    if (!got.status().IsWouldBlock()) return got.status();
  }
  return Status::Internal("probe read never granted");
}

struct CrashPointOutcome {
  bool triggered = false;
  std::string point;    // Fail-point that fired.
  std::string failure;  // Empty = survived the crash end-to-end.
};

// Runs the seeded workload with a one-shot fault armed at global hit `k`
// (counted from the end of bootstrap), crashes everything when it fires,
// recovers, resumes, and verifies. Never uses gtest assertions so the teeth
// tests can count failures instead of aborting.
//
// With `instant_restart`, the server restart is lazy (DESIGN.md section 18):
// the workload resumes against a backlog of unrecovered pages, and an armed
// `recovery.server.lazy_repair` interruption degrades one mid-recovery
// repair. With `double_crash` additionally, every node crashes a second time
// while pages are still unrecovered -- the hardest mid-recovery fail point.
CrashPointOutcome RunCrashPoint(FaultInjector* injector, uint64_t k,
                                FaultAction action, double cut_fraction,
                                bool trust_log_tail, bool skip_journal_replay,
                                const std::string& dir_tag,
                                bool instant_restart = false,
                                bool double_crash = false) {
  CrashPointOutcome out;
  std::string dir = MakeTempDir("sweep_" + dir_tag + std::to_string(k));
  SystemConfig config = SweepConfig(dir, injector);
  config.debug_trust_log_tail = trust_log_tail;
  config.debug_skip_journal_replay = skip_journal_replay;
  config.instant_restart = instant_restart;

  injector->Disarm();
  auto sys_or = System::Create(config);
  if (!sys_or.ok()) {
    out.failure = "create: " + sys_or.status().ToString();
    return out;
  }
  auto system = std::move(sys_or).value();
  // Count hits from here so `k` indexes the workload window, matching the
  // enumeration pass (bootstrap performs the same deterministic hit prefix).
  injector->ResetCounts();
  injector->ArmGlobalHit(k, action, cut_fraction);

  Oracle oracle;
  Workload workload(system.get(), &oracle, SweepOptions());
  std::optional<TxnId> in_doubt;
  bool complete = false;
  while (!injector->triggered() && !complete) {
    auto done = workload.RunSteps(1);
    if (!done.ok()) {
      if (!injector->triggered()) {
        out.failure = "uninjected workload error: " + done.status().ToString();
        return out;
      }
      // A hard error surfaced from the injected fault. A failed Commit() is
      // in-doubt: the commit record may have reached the log before the
      // failure was reported.
      const auto& fail = workload.last_failure();
      if (fail.has_value() && fail->during_commit) {
        oracle.MarkInDoubt(fail->txn);
        in_doubt = fail->txn;
      }
      break;
    }
    complete = done.value();
  }
  if (!injector->triggered()) {
    out.failure = "fault at hit " + std::to_string(k) + " never fired";
    return out;
  }
  out.triggered = true;
  out.point = injector->fired()->point;

  // Crash every node. Volatile state is dropped; whatever the injector left
  // half-written on disk stays exactly as it is.
  for (size_t i = 0; i < system->num_clients(); ++i) {
    if (Status st = system->CrashClient(i); !st.ok()) {
      out.failure = "crash client: " + st.ToString();
      return out;
    }
    oracle.CrashClient(static_cast<ClientId>(i));
    workload.OnClientCrashed(i);
  }
  if (Status st = system->CrashServer(); !st.ok()) {
    out.failure = "crash server: " + st.ToString();
    return out;
  }

  if (Status st = system->RecoverAll(); !st.ok()) {
    out.failure = "recovery: " + st.ToString();
    return out;
  }
  for (size_t i = 0; i < system->num_clients(); ++i) {
    workload.OnClientRecovered(i);
  }

  if (instant_restart && double_crash &&
      system->RecoveryPagesPending() > 0) {
    // Second crash during lazy recovery: the re-derived backlog must be just
    // as recoverable as the first one.
    for (size_t i = 0; i < system->num_clients(); ++i) {
      if (Status st = system->CrashClient(i); !st.ok()) {
        out.failure = "second crash client: " + st.ToString();
        return out;
      }
      oracle.CrashClient(static_cast<ClientId>(i));
      workload.OnClientCrashed(i);
    }
    if (Status st = system->CrashServer(); !st.ok()) {
      out.failure = "second crash server: " + st.ToString();
      return out;
    }
    if (Status st = system->RecoverAll(); !st.ok()) {
      out.failure = "second recovery: " + st.ToString();
      return out;
    }
    for (size_t i = 0; i < system->num_clients(); ++i) {
      workload.OnClientRecovered(i);
    }
  }
  if (instant_restart) {
    // One mid-recovery repair degrades to WouldBlock(kRecoveringPage); the
    // workload's generic retry must absorb it with no oracle divergence.
    injector->ArmPoint("recovery.server.lazy_repair", 1, FaultAction::kError,
                       0.5);
  }

  // Settle the in-doubt commit: find an object whose value differs between
  // the committed and aborted outcomes and read it back. Recovery made the
  // transaction atomic, so one distinguishing object decides it (the final
  // Verify cross-checks every other object anyway).
  if (in_doubt.has_value() && oracle.InDoubt(*in_doubt) != nullptr) {
    const auto* writes = oracle.InDoubt(*in_doubt);
    bool committed = false;
    for (const auto& [oid, value] : *writes) {
      auto prior = oracle.CommittedValue(oid);
      std::optional<std::string> if_aborted =
          prior.has_value()
              ? *prior
              : std::optional<std::string>(
                    std::string(config.object_size, '\0'));
      if (value == if_aborted) continue;  // Indistinguishable outcomes.
      auto got = ProbeRead(system.get(), oid);
      if (!got.ok()) {
        out.failure = "in-doubt probe: " + got.status().ToString();
        return out;
      }
      committed = value.has_value() && got.value() == *value;
      break;
    }
    oracle.ResolveInDoubt(*in_doubt, committed);
  }

  // The recovered system must be fully usable: resume the workload to
  // completion, quiesce, and verify against the oracle.
  if (Status st = workload.Run(); !st.ok()) {
    out.failure = "resume: " + st.ToString();
    return out;
  }
  if (workload.stats().read_mismatches > 0) {
    out.failure = std::to_string(workload.stats().read_mismatches) +
                  " stale reads after recovery";
    return out;
  }
  if (instant_restart) {
    // The armed interruption may never have been consumed (the resumed
    // workload might not touch a pending page); clear it and drain whatever
    // the demand traffic left behind.
    injector->Disarm();
    if (Status st = system->DrainRecovery(); !st.ok()) {
      out.failure = "drain: " + st.ToString();
      return out;
    }
    if (system->RecoveryPagesPending() != 0) {
      out.failure = "recovery backlog did not drain";
      return out;
    }
  }
  if (Status st = system->FlushEverything(); !st.ok()) {
    out.failure = "flush: " + st.ToString();
    return out;
  }
  auto mismatches = oracle.Verify(system.get(), 0);
  if (!mismatches.ok()) {
    out.failure = "verify: " + mismatches.status().ToString();
    return out;
  }
  if (mismatches.value() != 0) {
    out.failure = std::to_string(mismatches.value()) + " oracle mismatches";
    return out;
  }
  return out;
}

// Runs the workload once with the injector as a pure counting probe and
// returns the number of fail-point hits in the workload window. Drives one
// step at a time -- the exact loop RunCrashPoint uses -- so the hit sequence
// enumerated here is the sequence every sweep run replays (RunSteps restarts
// its client scan each call, so chunk size is part of the schedule).
uint64_t EnumerateHits(FaultInjector* injector, const std::string& dir_tag) {
  injector->Disarm();
  auto system =
      System::Create(SweepConfig(MakeTempDir(dir_tag), injector)).value();
  injector->ResetCounts();
  Oracle oracle;
  Workload workload(system.get(), &oracle, SweepOptions());
  bool complete = false;
  while (!complete) {
    auto done = workload.RunSteps(1);
    EXPECT_TRUE(done.ok()) << done.status().ToString();
    if (!done.ok()) break;
    complete = done.value();
  }
  return injector->total_hits();
}

// Two enumeration passes with the same seed must produce identical hit
// sequences -- the property that makes a crash point reproducible from its
// (seed, hit_index) pair.
TEST(CrashSweepTest, EnumerationIsDeterministic) {
  FaultInjector a, b;
  a.EnableTrace(true);
  b.EnableTrace(true);
  uint64_t hits_a = EnumerateHits(&a, "sweep_enum_a");
  uint64_t hits_b = EnumerateHits(&b, "sweep_enum_b");
  EXPECT_GT(hits_a, 0u);
  EXPECT_EQ(hits_a, hits_b);
  EXPECT_EQ(a.hit_counts(), b.hit_counts());
  EXPECT_EQ(a.trace(), b.trace());
}

// The tentpole: sweep a strided sample of every fail-point hit the workload
// performs, crash at each, and require a clean recovery every time.
TEST(CrashSweepTest, EveryCrashPointRecovers) {
  FaultInjector injector;
  uint64_t m = EnumerateHits(&injector, "sweep_enum");
  ASSERT_GE(m, 100u) << "workload too small to sweep";

  constexpr FaultAction kActions[] = {FaultAction::kTornWrite,
                                      FaultAction::kError,
                                      FaultAction::kShortWrite};
  constexpr double kCuts[] = {0.5, 0.25, 0.75};
  uint64_t stride = std::max<uint64_t>(1, m / 110);
  std::set<std::string> points;
  size_t swept = 0;
  for (uint64_t k = 1; k <= m; k += stride, ++swept) {
    FaultAction action = kActions[swept % 3];
    double cut = kCuts[(swept / 3) % 3];
    CrashPointOutcome out =
        RunCrashPoint(&injector, k, action, cut, false, false, "k");
    ASSERT_TRUE(out.triggered) << "k=" << k << ": " << out.failure;
    EXPECT_EQ(out.failure, "")
        << "crash at hit " << k << " of " << m << " (" << out.point << ", "
        << FaultActionName(action) << ", cut " << cut
        << "): reproduce with seed " << kSeed;
    points.insert(out.point);
  }
  EXPECT_GE(swept, 100u);

  // The sample must have crashed all three durability domains.
  bool client_log = false, server_log = false, server_disk = false;
  for (const std::string& p : points) {
    if (p.rfind("client", 0) == 0) client_log = true;
    if (p.rfind("server.log", 0) == 0) server_log = true;
    if (p.rfind("server.disk", 0) == 0) server_disk = true;
  }
  EXPECT_TRUE(client_log) << "no client-log crash point swept";
  EXPECT_TRUE(server_log) << "no server-log crash point swept";
  EXPECT_TRUE(server_disk) << "no server-disk crash point swept";
}

// Same sweep through the instant-restart path: recovery is lazy, the resumed
// workload runs against the unrecovered backlog (demand repairs + degraded
// responses), every third point crashes everything a second time while pages
// are still unrecovered, and one mid-recovery repair is interrupted via the
// recovery.server.lazy_repair fail point. Zero oracle divergence required
// throughout.
TEST(CrashSweepTest, LazyRestartCrashPointsRecover) {
  FaultInjector injector;
  uint64_t m = EnumerateHits(&injector, "sweep_enum_lazy");
  ASSERT_GE(m, 100u) << "workload too small to sweep";

  constexpr FaultAction kActions[] = {FaultAction::kTornWrite,
                                      FaultAction::kError,
                                      FaultAction::kShortWrite};
  constexpr double kCuts[] = {0.5, 0.25, 0.75};
  uint64_t stride = std::max<uint64_t>(1, m / 30);
  size_t swept = 0;
  for (uint64_t k = 1; k <= m; k += stride, ++swept) {
    FaultAction action = kActions[swept % 3];
    double cut = kCuts[(swept / 3) % 3];
    bool double_crash = swept % 3 == 2;
    CrashPointOutcome out =
        RunCrashPoint(&injector, k, action, cut, false, false, "lz",
                      /*instant_restart=*/true, double_crash);
    ASSERT_TRUE(out.triggered) << "k=" << k << ": " << out.failure;
    EXPECT_EQ(out.failure, "")
        << "lazy crash at hit " << k << " of " << m << " (" << out.point
        << ", " << FaultActionName(action) << ", cut " << cut
        << (double_crash ? ", double crash" : "")
        << "): reproduce with seed " << kSeed;
  }
  EXPECT_GE(swept, 25u);
}

// Group commit under fire: a crash inside the one force that covers a whole
// commit group must leave every member transaction all-or-nothing, and the
// transactions that did survive must form a prefix of the group's commit
// order (their records entered the log sequentially, and a torn force
// persists a prefix of the pending buffer). Swept over all fault actions and
// several torn-write cut fractions.
TEST(CrashSweepTest, GroupedForceCrashIsAtomicPerTransaction) {
  struct Case {
    FaultAction action;
    double cut;
  };
  constexpr Case kCases[] = {{FaultAction::kTornWrite, 0.15},
                             {FaultAction::kTornWrite, 0.4},
                             {FaultAction::kTornWrite, 0.6},
                             {FaultAction::kTornWrite, 0.85},
                             {FaultAction::kError, 0.5},
                             {FaultAction::kShortWrite, 0.5}};
  int case_idx = 0;
  for (const Case& cs : kCases) {
    SCOPED_TRACE(std::string(FaultActionName(cs.action)) + " cut " +
                 std::to_string(cs.cut));
    FaultInjector injector;
    SystemConfig config = SweepConfig(
        MakeTempDir("sweep_group_" + std::to_string(case_idx++)), &injector);
    config.num_clients = 1;
    config.client_cache_pages = 16;  // No eviction forces mid-group.
    config.group_commit_window = 1000ull * 1000 * 1000;
    config.group_commit_max_txns = 4;
    auto system = System::Create(config).value();
    Client& c = system->client(0);
    injector.ResetCounts();
    injector.ArmPoint("client0.log.force", 1, cs.action, cs.cut);

    // Four transactions, two objects each; the 4th commit closes the group
    // and runs into the armed fault.
    auto oid = [](int t, SlotId slot) {
      return ObjectId{static_cast<PageId>(t), slot};
    };
    auto value = [&](int t) { return std::string(config.object_size, 'A' + t); };
    for (int t = 0; t < 4; ++t) {
      TxnId txn = c.Begin().value();
      ASSERT_TRUE(c.Write(txn, oid(t, 0), value(t)).ok());
      ASSERT_TRUE(c.Write(txn, oid(t, 1), value(t)).ok());
      Status st = c.Commit(txn);
      if (t < 3) {
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(c.log().force_count(), 0u);  // Still deferred.
      } else {
        EXPECT_FALSE(st.ok()) << "grouped force should have failed";
      }
    }
    ASSERT_TRUE(injector.triggered());

    ASSERT_TRUE(system->CrashClient(0).ok());
    ASSERT_TRUE(system->CrashServer().ok());
    ASSERT_TRUE(system->RecoverAll().ok());

    // Each transaction either committed whole (both objects carry its value)
    // or vanished whole (both carry the preloaded zero fill), and the
    // committed ones form a prefix of the commit order.
    const std::string preloaded(config.object_size, '\0');
    bool lost_seen = false;
    for (int t = 0; t < 4; ++t) {
      auto got0 = ProbeRead(system.get(), oid(t, 0));
      auto got1 = ProbeRead(system.get(), oid(t, 1));
      ASSERT_TRUE(got0.ok()) << got0.status().ToString();
      ASSERT_TRUE(got1.ok()) << got1.status().ToString();
      bool committed0 = got0.value() == value(t);
      bool committed1 = got1.value() == value(t);
      EXPECT_EQ(committed0, committed1) << "txn " << t << " torn in half";
      if (!committed0) {
        EXPECT_EQ(got0.value(), preloaded);
      }
      if (!committed1) {
        EXPECT_EQ(got1.value(), preloaded);
      }
      if (committed0) {
        EXPECT_FALSE(lost_seen)
            << "txn " << t << " survived after an earlier group member was "
            << "lost -- durable commits must form a prefix";
      } else {
        lost_seen = true;
      }
    }
    // A clean EIO leaves no bytes behind: the whole group must be gone.
    if (cs.action == FaultAction::kError) {
      EXPECT_TRUE(lost_seen);
    }
  }
}

// Picks up to `max` evenly spaced 1-based hit indices whose traced point
// satisfies `pred`.
template <typename Pred>
std::vector<uint64_t> CandidateHits(const std::vector<std::string>& trace,
                                    size_t max, Pred pred) {
  std::vector<uint64_t> all;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (pred(trace[i])) all.push_back(i + 1);
  }
  if (all.size() <= max) return all;
  std::vector<uint64_t> picked;
  for (size_t j = 0; j < max; ++j) {
    picked.push_back(all[j * all.size() / max]);
  }
  return picked;
}

// Teeth test 1: a recovery that trusts the log tail without the CRC scan
// must be caught by the sweep. A torn client-log force leaves garbage after
// the last complete frame; believing it is durable log breaks restart.
TEST(CrashSweepTest, BrokenLogTailScanIsCaught) {
  FaultInjector injector;
  injector.EnableTrace(true);
  EnumerateHits(&injector, "sweep_teeth_log");
  std::vector<uint64_t> candidates =
      CandidateHits(injector.trace(), 8, [](const std::string& p) {
        return p.rfind("client", 0) == 0 &&
               p.size() >= 10 && p.compare(p.size() - 10, 10, ".log.force") == 0;
      });
  injector.EnableTrace(false);
  ASSERT_FALSE(candidates.empty()) << "workload never forces a client log";

  size_t failures = 0;
  for (uint64_t k : candidates) {
    CrashPointOutcome out = RunCrashPoint(&injector, k, FaultAction::kTornWrite,
                                          0.5, /*trust_log_tail=*/true,
                                          /*skip_journal_replay=*/false, "tl");
    if (!out.triggered || !out.failure.empty()) ++failures;
  }
  EXPECT_GT(failures, 0u)
      << "skipping the log-tail CRC scan went undetected across "
      << candidates.size() << " torn-force crash points";
}

// Teeth test 2: a recovery that ignores the doublewrite journal must be
// caught. A torn in-place page write leaves a checksum-invalid page; only
// journal replay at reopen repairs it.
TEST(CrashSweepTest, BrokenJournalReplayIsCaught) {
  FaultInjector injector;
  injector.EnableTrace(true);
  EnumerateHits(&injector, "sweep_teeth_disk");
  std::vector<uint64_t> candidates = CandidateHits(
      injector.trace(), 8,
      [](const std::string& p) { return p == "server.disk.page"; });
  injector.EnableTrace(false);
  ASSERT_FALSE(candidates.empty()) << "workload never writes a server page";

  constexpr double kCuts[] = {0.5, 0.25, 0.75};
  size_t failures = 0;
  for (size_t j = 0; j < candidates.size(); ++j) {
    CrashPointOutcome out =
        RunCrashPoint(&injector, candidates[j], FaultAction::kTornWrite,
                      kCuts[j % 3], /*trust_log_tail=*/false,
                      /*skip_journal_replay=*/true, "sj");
    if (!out.triggered || !out.failure.empty()) ++failures;
  }
  EXPECT_GT(failures, 0u)
      << "skipping journal replay went undetected across "
      << candidates.size() << " torn-page crash points";
}

}  // namespace
}  // namespace finelog
