// Integration tests for lock escalation and de-escalation (Section 3.2,
// page-level conflict handling, and the adaptive scheme of [3]).

#include <gtest/gtest.h>

#include "core/system.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

class DeescalationTest : public ::testing::Test {
 protected:
  void Start(uint32_t threshold) {
    SystemConfig config = SmallConfig("deesc");
    config.escalation_threshold = threshold;
    auto sys = System::Create(config);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    system_ = std::move(sys).value();
  }
  std::string Val(char fill) {
    return std::string(system_->config().object_size, fill);
  }
  std::unique_ptr<System> system_;
};

TEST_F(DeescalationTest, EscalatedPageLockDeescalatesOnConflict) {
  Start(/*threshold=*/2);
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);

  // c0 crosses the escalation threshold and obtains a page X lock.
  TxnId t0 = c0.Begin().value();
  for (SlotId s = 0; s < 4; ++s) {
    ASSERT_TRUE(c0.Write(t0, ObjectId{PageId(1), s}, Val('a')).ok());
  }
  ASSERT_TRUE(c0.Commit(t0).ok());
  ASSERT_TRUE(system_->server().glm().HoldsPage(ClientId(0), PageId(1), LockMode::kExclusive));

  // c1's access to a *different* object forces c0 to de-escalate: c0 trades
  // its page lock for object locks on the objects it accessed.
  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(c1.Write(t1, ObjectId{PageId(1), 6}, Val('b')).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
  EXPECT_FALSE(system_->server().glm().HoldsPage(ClientId(0), PageId(1), LockMode::kShared));
  EXPECT_TRUE(system_->server().glm().HoldsObject(ClientId(0), ObjectId{PageId(1), 0},
                                                  LockMode::kExclusive));
  EXPECT_GT(system_->metrics().Get(Counter::kServerDeescalations), 0u);

  // c0's cached object locks still work locally after de-escalation.
  uint64_t misses = system_->metrics().Get(Counter::kClientLockMisses);
  TxnId t2 = c0.Begin().value();
  ASSERT_TRUE(c0.Write(t2, ObjectId{PageId(1), 0}, Val('c')).ok());
  ASSERT_TRUE(c0.Commit(t2).ok());
  EXPECT_EQ(system_->metrics().Get(Counter::kClientLockMisses), misses);
}

TEST_F(DeescalationTest, DeescalationDeniedDuringStructuralTxn) {
  Start(/*threshold=*/100);  // No auto-escalation; Create takes page X.
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);

  TxnId t0 = c0.Begin().value();
  ASSERT_TRUE(c0.Create(t0, PageId(2), "structural-in-flight").ok());

  // While the structural transaction is active, c1 cannot even read the
  // page's objects (the page X lock cannot be de-escalated mid-structure).
  TxnId t1 = c1.Begin().value();
  EXPECT_TRUE(c1.Read(t1, ObjectId{PageId(2), 0}).status().IsWouldBlock());

  ASSERT_TRUE(c0.Commit(t0).ok());
  // Afterwards the de-escalation succeeds and the read proceeds.
  EXPECT_TRUE(c1.Read(t1, ObjectId{PageId(2), 0}).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
}

TEST_F(DeescalationTest, DeescalationShipsDirtyPage) {
  Start(/*threshold=*/1);
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);

  TxnId t0 = c0.Begin().value();
  ASSERT_TRUE(c0.Write(t0, ObjectId{PageId(3), 0}, Val('d')).ok());
  ASSERT_TRUE(c0.Write(t0, ObjectId{PageId(3), 1}, Val('e')).ok());
  ASSERT_TRUE(c0.Commit(t0).ok());

  // The de-escalation response must carry c0's dirty copy so c1 sees the
  // committed values immediately.
  TxnId t1 = c1.Begin().value();
  EXPECT_EQ(c1.Read(t1, ObjectId{PageId(3), 0}).value(), Val('d'));
  EXPECT_EQ(c1.Read(t1, ObjectId{PageId(3), 1}).value(), Val('e'));
  ASSERT_TRUE(c1.Commit(t1).ok());
}

TEST_F(DeescalationTest, EscalationSkippedUnderContention) {
  Start(/*threshold=*/2);
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);

  // c1 actively holds an object on the page: c0's escalation attempt is
  // denied but its object-level work proceeds.
  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(c1.Write(t1, ObjectId{PageId(4), 7}, Val('f')).ok());

  TxnId t0 = c0.Begin().value();
  for (SlotId s = 0; s < 5; ++s) {
    ASSERT_TRUE(c0.Write(t0, ObjectId{PageId(4), s}, Val('g')).ok()) << "slot " << s;
  }
  ASSERT_TRUE(c0.Commit(t0).ok());
  EXPECT_FALSE(system_->server().glm().HoldsPage(ClientId(0), PageId(4), LockMode::kShared));
  ASSERT_TRUE(c1.Commit(t1).ok());
}

}  // namespace
}  // namespace finelog
