// Chaos sweep: the standard multi-client workload under a matrix of wire
// fault mixes x seeds, with oracle verification that committed state
// survives, durable page PSNs stay monotone across a full crash/recovery,
// and the log prefix that recovery replays agrees with every committed
// update (DESIGN.md section 13).
//
// Three layers:
//   1. A defaults fingerprint: with every network-fault knob off, a seeded
//      run is byte-identical (message counts, simulated clock, raw client
//      log bytes) to a run that never heard of NetFaultConfig.
//   2. The matrix: 3 fault mixes x 8 net seeds; each run must complete,
//      survive a full crash with faults still live on the wire, recover,
//      and verify with zero oracle divergence and non-decreasing durable
//      PSNs. Per-seed summary lines go to stdout and, when the
//      FINELOG_CHAOS_SUMMARY environment variable names a file, into that
//      file (the CI chaos-smoke job uploads it as an artifact).
//   3. Combined wire + disk faults: the PR 1 crash-point sweep re-run with
//      a lossy network underneath -- a one-shot disk fault fires mid-run,
//      every node crashes, and recovery + resume + verify must still hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/system.h"
#include "core/workload.h"
#include "tests/test_util.h"
#include "util/fault.h"

namespace finelog {
namespace {

constexpr uint64_t kWorkloadSeed = 4242;

SystemConfig ChaosConfig(const std::string& dir, const NetFaultConfig& net,
                         FaultInjector* injector) {
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
  config.net_faults = net;
  config.fault_injector = injector;
  return config;
}

WorkloadOptions ChaosOptions() {
  WorkloadOptions options;
  options.txns_per_client = 6;
  options.ops_per_txn = 4;
  options.write_fraction = 0.7;
  options.pattern = AccessPattern::kHotCold;
  options.seed = kWorkloadSeed;
  return options;
}

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

void AppendSummary(const std::string& line) {
  std::printf("[chaos] %s\n", line.c_str());
  const char* path = std::getenv("FINELOG_CHAOS_SUMMARY");
  if (path == nullptr || path[0] == '\0') return;
  std::ofstream out(path, std::ios::app);
  out << line << '\n';
}

// ---------------------------------------------------------------------------
// Layer 1: defaults fingerprint.
// ---------------------------------------------------------------------------

struct RunFingerprint {
  uint64_t total_messages = 0;
  uint64_t total_items = 0;
  uint64_t total_bytes = 0;
  uint64_t sim_us = 0;
  uint64_t commits = 0;
  std::string log_bytes;

  friend bool operator==(const RunFingerprint&,
                         const RunFingerprint&) = default;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

RunFingerprint RunSeededWorkload(const SystemConfig& config) {
  auto system = System::Create(config).value();
  Oracle oracle;
  WorkloadOptions options;
  options.txns_per_client = 8;
  options.ops_per_txn = 4;
  options.write_fraction = 0.7;
  options.pattern = AccessPattern::kHotCold;
  options.seed = 99;
  Workload workload(system.get(), &oracle, options);
  EXPECT_TRUE(workload.Run().ok());
  auto mismatches = oracle.Verify(system.get(), 0);
  EXPECT_TRUE(mismatches.ok());
  EXPECT_EQ(mismatches.value(), 0u);

  RunFingerprint fp;
  fp.total_messages = system->channel().total_messages();
  fp.total_items = system->channel().total_items();
  fp.total_bytes = system->channel().total_bytes();
  fp.sim_us = system->clock().now_us();
  fp.commits = system->client(0).commits();
  fp.log_bytes = ReadFile(config.dir + "/client0.log");
  EXPECT_FALSE(fp.log_bytes.empty());
  return fp;
}

// With every fault rate at zero and fail points off, the delivery layer and
// RPC chokepoint must be invisible: same message counts, same simulated
// clock, same log bytes -- even when the auxiliary knobs (timeout, retry
// budget, dedup cache size, seed) are set to unusual values.
TEST(ChaosNetTest, DefaultsFingerprintIsByteIdentical) {
  SystemConfig defaults = SmallConfig("chaos_fp_default");
  RunFingerprint base = RunSeededWorkload(defaults);

  SystemConfig tuned = SmallConfig("chaos_fp_tuned");
  tuned.net_faults.rpc_timeout_us = 12345;
  tuned.net_faults.max_attempts = 2;
  tuned.net_faults.backoff_base_us = 7;
  tuned.net_faults.dedup_cache_size = 1;
  tuned.net_faults.seed = 987654321;
  RunFingerprint off = RunSeededWorkload(tuned);

  EXPECT_EQ(base, off);
}

// ---------------------------------------------------------------------------
// Layer 2: the fault-mix x seed matrix.
// ---------------------------------------------------------------------------

struct FaultMix {
  const char* name;
  double drop, dup, reorder, delay;
};

// One cell of the matrix. Returns an empty string on success, a description
// of the first divergence otherwise.
std::string RunMatrixCell(const FaultMix& mix, uint64_t net_seed,
                          uint64_t* commits, uint64_t* drops) {
  NetFaultConfig net;
  net.drop_rate = mix.drop;
  net.dup_rate = mix.dup;
  net.reorder_rate = mix.reorder;
  net.delay_rate = mix.delay;
  net.seed = net_seed;
  SystemConfig config = ChaosConfig(
      MakeTempDir("chaos_" + std::string(mix.name) + std::to_string(net_seed)),
      net, nullptr);
  auto sys_or = System::Create(config);
  if (!sys_or.ok()) return "create: " + sys_or.status().ToString();
  auto system = std::move(sys_or).value();

  Oracle oracle;
  Workload workload(system.get(), &oracle, ChaosOptions());
  if (Status st = workload.Run(); !st.ok()) return "run: " + st.ToString();
  if (workload.stats().read_mismatches > 0) {
    return std::to_string(workload.stats().read_mismatches) + " stale reads";
  }
  *commits = workload.stats().commits;
  *drops = system->metrics().Get(Counter::kNetDrops);

  // Crash every node with the faults still live on the wire, then recover.
  // Recovery traffic rides the recovery plane, exempt from injected faults.
  std::vector<uint64_t> before = ReadDurablePsns(config);
  for (size_t i = 0; i < system->num_clients(); ++i) {
    if (Status st = system->CrashClient(i); !st.ok()) {
      return "crash client: " + st.ToString();
    }
    oracle.CrashClient(static_cast<ClientId>(i));
  }
  if (Status st = system->CrashServer(); !st.ok()) {
    return "crash server: " + st.ToString();
  }
  if (Status st = system->RecoverAll(); !st.ok()) {
    return "recovery: " + st.ToString();
  }

  // Heal before verification: Oracle::Verify treats kWouldBlock as "skip",
  // so reads must not be lossy while it runs.
  system->rpc().faults() = NetFaultConfig{};
  if (Status st = system->FlushEverything(); !st.ok()) {
    return "flush: " + st.ToString();
  }
  auto mismatches = oracle.Verify(system.get(), 0);
  if (!mismatches.ok()) return "verify: " + mismatches.status().ToString();
  if (mismatches.value() != 0) {
    return std::to_string(mismatches.value()) + " oracle mismatches";
  }

  std::vector<uint64_t> after = ReadDurablePsns(config);
  for (size_t p = 0; p < before.size(); ++p) {
    if (after[p] < before[p]) {
      return "page " + std::to_string(p) + " durable PSN went backwards: " +
             std::to_string(before[p]) + " -> " + std::to_string(after[p]);
    }
  }
  return "";
}

// The tentpole matrix: every mix x seed cell completes, survives a crash
// with faults live, recovers, and verifies with zero divergence.
TEST(ChaosNetTest, MatrixPreservesInvariants) {
  constexpr FaultMix kMixes[] = {
      {"light", 0.02, 0.02, 0.02, 0.02},
      {"drop_heavy", 0.10, 0.05, 0.05, 0.0},
      {"chaos", 0.15, 0.10, 0.10, 0.10},
  };
  constexpr uint64_t kNetSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

  uint64_t total_commits = 0;
  uint64_t total_drops = 0;
  for (const FaultMix& mix : kMixes) {
    for (uint64_t seed : kNetSeeds) {
      SCOPED_TRACE(std::string(mix.name) + " net_seed=" + std::to_string(seed));
      uint64_t commits = 0, drops = 0;
      std::string failure = RunMatrixCell(mix, seed, &commits, &drops);
      EXPECT_EQ(failure, "");
      total_commits += commits;
      total_drops += drops;
      std::ostringstream line;
      line << "mix=" << mix.name << " net_seed=" << seed
           << " commits=" << commits << " drops=" << drops
           << " result=" << (failure.empty() ? "ok" : failure);
      AppendSummary(line.str());
    }
  }
  // The matrix must actually have exercised the fault paths.
  EXPECT_GT(total_commits, 0u);
  EXPECT_GT(total_drops, 0u);
}

// ---------------------------------------------------------------------------
// Layer 3: combined wire faults + disk crash points.
// ---------------------------------------------------------------------------

// A lossy-but-survivable mix for the combined runs. Retries change the
// message schedule, so the enumeration pass below runs under the *same*
// mix -- hit k indexes the same disk operation in both passes.
NetFaultConfig CombinedMix() {
  NetFaultConfig net;
  net.drop_rate = 0.05;
  net.dup_rate = 0.02;
  net.reorder_rate = 0.02;
  net.seed = 31;
  return net;
}

uint64_t EnumerateHitsUnderFaults(FaultInjector* injector,
                                  const std::string& dir_tag) {
  injector->Disarm();
  auto system = System::Create(ChaosConfig(MakeTempDir(dir_tag), CombinedMix(),
                                           injector))
                    .value();
  injector->ResetCounts();
  Oracle oracle;
  Workload workload(system.get(), &oracle, ChaosOptions());
  bool complete = false;
  while (!complete) {
    auto done = workload.RunSteps(1);
    EXPECT_TRUE(done.ok()) << done.status().ToString();
    if (!done.ok()) break;
    complete = done.value();
  }
  return injector->total_hits();
}

// One combined run: wire faults live the whole time, a one-shot disk fault
// armed at global hit `k`. Mirrors crash_sweep_test's RunCrashPoint with the
// network healed only for the final verification.
std::string RunCombinedCrashPoint(FaultInjector* injector, uint64_t k,
                                  FaultAction action, double cut) {
  injector->Disarm();
  SystemConfig config = ChaosConfig(
      MakeTempDir("chaos_combined_" + std::to_string(k)), CombinedMix(),
      injector);
  auto sys_or = System::Create(config);
  if (!sys_or.ok()) return "create: " + sys_or.status().ToString();
  auto system = std::move(sys_or).value();
  injector->ResetCounts();
  injector->ArmGlobalHit(k, action, cut);

  Oracle oracle;
  Workload workload(system.get(), &oracle, ChaosOptions());
  std::optional<TxnId> in_doubt;
  bool complete = false;
  while (!injector->triggered() && !complete) {
    auto done = workload.RunSteps(1);
    if (!done.ok()) {
      if (!injector->triggered()) {
        return "uninjected workload error: " + done.status().ToString();
      }
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
    return "fault at hit " + std::to_string(k) + " never fired";
  }

  for (size_t i = 0; i < system->num_clients(); ++i) {
    if (Status st = system->CrashClient(i); !st.ok()) {
      return "crash client: " + st.ToString();
    }
    oracle.CrashClient(static_cast<ClientId>(i));
    workload.OnClientCrashed(i);
  }
  if (Status st = system->CrashServer(); !st.ok()) {
    return "crash server: " + st.ToString();
  }
  if (Status st = system->RecoverAll(); !st.ok()) {
    return "recovery: " + st.ToString();
  }
  for (size_t i = 0; i < system->num_clients(); ++i) {
    workload.OnClientRecovered(i);
  }

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
      if (value == if_aborted) continue;
      auto got = ProbeRead(system.get(), oid);
      if (!got.ok()) return "in-doubt probe: " + got.status().ToString();
      committed = value.has_value() && got.value() == *value;
      break;
    }
    oracle.ResolveInDoubt(*in_doubt, committed);
  }

  // Resume under the same lossy network: the recovered system must absorb
  // retries, dups and ghosts exactly like the pre-crash one.
  if (Status st = workload.Run(); !st.ok()) {
    return "resume: " + st.ToString();
  }
  if (workload.stats().read_mismatches > 0) {
    return std::to_string(workload.stats().read_mismatches) +
           " stale reads after recovery";
  }

  system->rpc().faults() = NetFaultConfig{};  // Heal for verification only.
  if (Status st = system->FlushEverything(); !st.ok()) {
    return "flush: " + st.ToString();
  }
  auto mismatches = oracle.Verify(system.get(), 0);
  if (!mismatches.ok()) return "verify: " + mismatches.status().ToString();
  if (mismatches.value() != 0) {
    return std::to_string(mismatches.value()) + " oracle mismatches";
  }
  return "";
}

TEST(ChaosNetTest, CombinedWireFaultAndCrashPointRecovers) {
  FaultInjector injector;
  uint64_t m = EnumerateHitsUnderFaults(&injector, "chaos_combined_enum");
  ASSERT_GE(m, 10u) << "workload too small to sweep";

  struct Case {
    uint64_t k;
    FaultAction action;
    double cut;
  };
  const Case kCases[] = {
      {std::max<uint64_t>(1, m / 4), FaultAction::kTornWrite, 0.5},
      {std::max<uint64_t>(1, m / 2), FaultAction::kError, 0.5},
      {std::max<uint64_t>(1, 3 * m / 4), FaultAction::kShortWrite, 0.25},
  };
  for (const Case& cs : kCases) {
    SCOPED_TRACE("k=" + std::to_string(cs.k) + " of " + std::to_string(m) +
                 " action=" + std::string(FaultActionName(cs.action)));
    std::string failure =
        RunCombinedCrashPoint(&injector, cs.k, cs.action, cs.cut);
    EXPECT_EQ(failure, "");
    AppendSummary("combined k=" + std::to_string(cs.k) + "/" +
                  std::to_string(m) +
                  " action=" + std::string(FaultActionName(cs.action)) +
                  " result=" + (failure.empty() ? "ok" : failure));
  }
}

}  // namespace
}  // namespace finelog
