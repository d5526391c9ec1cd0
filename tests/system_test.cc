// System-level tests: lifecycle, persistence across process restarts
// (System re-creation over an existing directory), and API preconditions.

#include <gtest/gtest.h>

#include "core/system.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

TEST(SystemTest, PersistsAcrossProcessRestart) {
  SystemConfig config = SmallConfig("sys_persist");
  std::string value(config.object_size, 'P');
  {
    auto system = System::Create(config).value();
    Client& c = system->client(0);
    TxnId txn = c.Begin().value();
    ASSERT_TRUE(c.Write(txn, ObjectId{PageId(1), 1}, value).ok());
    ASSERT_TRUE(c.Commit(txn).ok());
    ASSERT_TRUE(system->FlushEverything().ok());
    // System destroyed: simulates a clean process shutdown.
  }
  // Reopen over the same directory: no re-bootstrap, data intact.
  auto system = System::Create(config).value();
  Client& c = system->client(1);
  TxnId txn = c.Begin().value();
  EXPECT_EQ(c.Read(txn, ObjectId{PageId(1), 1}).value(), value);
  ASSERT_TRUE(c.Commit(txn).ok());
}

TEST(SystemTest, ColdRestartRecoversUnflushedCommits) {
  // Harsher: everything committed but nothing flushed, then the whole
  // process goes away. On reopen, client restart recovery must replay from
  // the private logs.
  SystemConfig config = SmallConfig("sys_cold");
  std::string value(config.object_size, 'C');
  {
    auto system = System::Create(config).value();
    Client& c = system->client(0);
    TxnId txn = c.Begin().value();
    ASSERT_TRUE(c.Write(txn, ObjectId{PageId(2), 2}, value).ok());
    ASSERT_TRUE(c.Commit(txn).ok());
    // No flush, no ship. The commit forced the private log; that must be
    // enough.
  }
  auto system = System::Create(config).value();
  // A fresh process has no volatile state: run restart recovery for
  // everything, as a real deployment would after a power failure.
  for (size_t i = 0; i < system->num_clients(); ++i) {
    ASSERT_TRUE(system->CrashClient(i).ok());
  }
  ASSERT_TRUE(system->CrashServer().ok());
  ASSERT_TRUE(system->RecoverAll().ok());
  Client& c = system->client(1);
  TxnId txn = c.Begin().value();
  EXPECT_EQ(c.Read(txn, ObjectId{PageId(2), 2}).value(), value);
  ASSERT_TRUE(c.Commit(txn).ok());
}

TEST(SystemTest, RecoverClientRequiresLiveServer) {
  auto system = System::Create(SmallConfig("sys_order")).value();
  ASSERT_TRUE(system->CrashClient(0).ok());
  ASSERT_TRUE(system->CrashServer().ok());
  EXPECT_EQ(system->RecoverClient(0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(system->RecoverServer().ok());
  EXPECT_TRUE(system->RecoverClient(0).ok());
}

TEST(SystemTest, InvalidConfigRejected) {
  SystemConfig config = SmallConfig("sys_invalid");
  config.preloaded_pages = config.num_pages + 1;
  EXPECT_EQ(System::Create(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SystemTest, ChannelAccountingIsExact) {
  auto system = System::Create(SmallConfig("sys_channel")).value();
  EXPECT_EQ(system->channel().total_messages(), 0u);
  Client& c = system->client(0);
  TxnId txn = c.Begin().value();
  std::string v(system->config().object_size, 'M');
  ASSERT_TRUE(c.Write(txn, ObjectId{PageId(1), 0}, v).ok());
  // One lock request/reply pair (cold object, no conflicts).
  EXPECT_EQ(system->channel().stats(MessageType::kLockRequest).count, 1u);
  EXPECT_EQ(system->channel().stats(MessageType::kLockReply).count, 1u);
  // The reply carried a whole page.
  EXPECT_GE(system->channel().stats(MessageType::kLockReply).bytes,
            system->config().page_size);
  uint64_t before = system->channel().total_messages();
  ASSERT_TRUE(c.Commit(txn).ok());
  EXPECT_EQ(system->channel().total_messages(), before);
  // Simulated time advanced by the two message latencies plus the commit's
  // log force at minimum.
  EXPECT_GE(system->clock().now_us(),
            2 * system->config().costs.msg_latency_us +
                system->config().costs.log_force_us);
}

TEST(SystemTest, ReleaseIdleLocksEnablesQuiescence) {
  auto system = System::Create(SmallConfig("sys_idle")).value();
  Client& c0 = system->client(0);
  std::string v(system->config().object_size, 'Q');
  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Write(txn, ObjectId{PageId(3), 0}, v).ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_TRUE(c0.ReleaseIdleLocks().ok());
  EXPECT_EQ(c0.llm().size(), 0u);
  EXPECT_EQ(c0.cache().size(), 0u);
  // Another client can now take exclusive locks with zero callbacks.
  uint64_t cbs = system->metrics().Get(Counter::kServerCallbacksObject);
  Client& c1 = system->client(1);
  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(c1.Write(t1, ObjectId{PageId(3), 0}, v).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
  EXPECT_EQ(system->metrics().Get(Counter::kServerCallbacksObject), cbs);
  // And the released client's committed data was shipped, not lost.
  TxnId t2 = c1.Begin().value();
  EXPECT_EQ(c1.Read(t2, ObjectId{PageId(3), 0}).value(), v);
  ASSERT_TRUE(c1.Commit(t2).ok());
}

}  // namespace
}  // namespace finelog
