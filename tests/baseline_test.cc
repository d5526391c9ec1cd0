// Tests of the baseline policies the paper compares against (Sections 3.1
// and 4.1): ARIES/CSA-style log shipping at commit, Versant-style page
// shipping at commit, page-level locking, and the update-token approach.

#include <gtest/gtest.h>

#include "core/system.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  void Start(SystemConfig config) {
    auto sys = System::Create(config);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    system_ = std::move(sys).value();
  }

  void CommittedWrite(size_t client, ObjectId oid, const std::string& value) {
    Client& c = system_->client(client);
    TxnId txn = c.Begin().value();
    ASSERT_TRUE(c.Write(txn, oid, value).ok());
    ASSERT_TRUE(c.Commit(txn).ok());
  }

  std::string ReadCommitted(size_t client, ObjectId oid) {
    Client& c = system_->client(client);
    TxnId txn = c.Begin().value();
    auto value = c.Read(txn, oid);
    EXPECT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_TRUE(c.Commit(txn).ok());
    return value.ok() ? value.value() : std::string();
  }

  std::string Val(char fill) {
    return std::string(system_->config().object_size, fill);
  }

  std::unique_ptr<System> system_;
};

TEST_F(BaselineTest, ShipLogsAtCommitSendsCommitTraffic) {
  SystemConfig config = SmallConfig("b_shiplogs");
  config.logging_policy = LoggingPolicy::kShipLogsAtCommit;
  Start(config);
  CommittedWrite(0, ObjectId{PageId(1), 0}, Val('A'));
  EXPECT_GT(system_->channel().stats(MessageType::kCommitShipLogs).count, 0u);
  EXPECT_GT(system_->channel().stats(MessageType::kCommitShipLogs).bytes, 0u);
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(1), 0}), Val('A'));
}

TEST_F(BaselineTest, ClientLocalPolicySendsNoCommitTraffic) {
  SystemConfig config = SmallConfig("b_local");
  Start(config);
  CommittedWrite(0, ObjectId{PageId(1), 0}, Val('B'));
  EXPECT_EQ(system_->channel().stats(MessageType::kCommitShipLogs).count, 0u);
  EXPECT_EQ(system_->channel().stats(MessageType::kCommitShipPages).count, 0u);
}

TEST_F(BaselineTest, ShipPagesAtCommitPushesDataToServer) {
  SystemConfig config = SmallConfig("b_shippages");
  config.logging_policy = LoggingPolicy::kShipPagesAtCommit;
  Start(config);
  CommittedWrite(0, ObjectId{PageId(2), 0}, Val('C'));
  EXPECT_GT(system_->channel().stats(MessageType::kCommitShipPages).count, 0u);
  // The page reached the server at commit time (no replacement needed):
  // the server's copy already carries the committed value.
  BufferPool::Frame* frame = system_->server().pool().Peek(PageId(2));
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->page.ReadObject(0).value(), Val('C'));
}

TEST_F(BaselineTest, PageLockingBlocksSamePageConcurrency) {
  SystemConfig config = SmallConfig("b_pagelock");
  config.lock_granularity = LockGranularity::kPage;
  Start(config);
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);
  TxnId t0 = c0.Begin().value();
  ASSERT_TRUE(c0.Write(t0, ObjectId{PageId(3), 0}, Val('D')).ok());
  // Different object, same page: blocked under page-level locking (this is
  // exactly what fine-granularity locking avoids, Section 3.1).
  TxnId t1 = c1.Begin().value();
  EXPECT_TRUE(c1.Write(t1, ObjectId{PageId(3), 1}, Val('E')).IsWouldBlock());
  ASSERT_TRUE(c0.Commit(t0).ok());
  EXPECT_TRUE(c1.Write(t1, ObjectId{PageId(3), 1}, Val('E')).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(3), 0}), Val('D'));
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(3), 1}), Val('E'));
}

TEST_F(BaselineTest, PageLockingRecoversFromClientCrash) {
  SystemConfig config = SmallConfig("b_pagelock_rec");
  config.lock_granularity = LockGranularity::kPage;
  Start(config);
  CommittedWrite(0, ObjectId{PageId(4), 0}, Val('F'));
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());
  EXPECT_EQ(ReadCommitted(1, ObjectId{PageId(4), 0}), Val('F'));
}

TEST_F(BaselineTest, UpdateTokenSerializesPhysicalUpdates) {
  SystemConfig config = SmallConfig("b_token");
  config.same_page_policy = SamePageUpdatePolicy::kUpdateToken;
  Start(config);
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);
  TxnId t0 = c0.Begin().value();
  ASSERT_TRUE(c0.Write(t0, ObjectId{PageId(5), 0}, Val('G')).ok());
  ASSERT_TRUE(c0.Commit(t0).ok());
  // c1 updates a different object on the same page: allowed by the locks,
  // but the update token must travel (with the page) through the server.
  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(c1.Write(t1, ObjectId{PageId(5), 1}, Val('H')).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
  EXPECT_GT(system_->channel().stats(MessageType::kTokenRequest).count, 0u);
  EXPECT_GT(system_->metrics().Get(Counter::kServerTokenTransfers), 0u);
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(5), 0}), Val('G'));
  EXPECT_EQ(ReadCommitted(2, ObjectId{PageId(5), 1}), Val('H'));
}

TEST_F(BaselineTest, UpdateTokenPingPongCostsMessages) {
  SystemConfig config = SmallConfig("b_token_ping");
  config.same_page_policy = SamePageUpdatePolicy::kUpdateToken;
  Start(config);
  uint64_t before = system_->channel().stats(MessageType::kTokenRequest).count;
  for (int i = 0; i < 4; ++i) {
    CommittedWrite(0, ObjectId{PageId(6), 0}, Val('I'));
    CommittedWrite(1, ObjectId{PageId(6), 1}, Val('J'));
  }
  uint64_t requests =
      system_->channel().stats(MessageType::kTokenRequest).count - before;
  EXPECT_GE(requests, 7u);  // The token bounces on nearly every switch.
}

TEST_F(BaselineTest, MergeCopiesNeedsNoTokenTraffic) {
  SystemConfig config = SmallConfig("b_merge_ping");
  Start(config);
  for (int i = 0; i < 4; ++i) {
    CommittedWrite(0, ObjectId{PageId(6), 0}, Val('I'));
    CommittedWrite(1, ObjectId{PageId(6), 1}, Val('J'));
  }
  EXPECT_EQ(system_->channel().stats(MessageType::kTokenRequest).count, 0u);
}

TEST_F(BaselineTest, SynchronizedCheckpointContactsAllClients) {
  SystemConfig config = SmallConfig("b_syncckpt");
  Start(config);
  ASSERT_TRUE(system_->server().TakeSynchronizedCheckpoint().ok());
  EXPECT_EQ(system_->channel().stats(MessageType::kCheckpointSync).count,
            system_->num_clients());
  // The paper's independent client checkpoints need no messages at all.
  uint64_t msgs = system_->channel().total_messages();
  ASSERT_TRUE(system_->client(0).TakeCheckpoint().ok());
  EXPECT_EQ(system_->channel().total_messages(), msgs);
}

}  // namespace
}  // namespace finelog
