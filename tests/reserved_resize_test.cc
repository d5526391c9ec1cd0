// Tests of the footnote-3 extension: objects created with reserved capacity
// can be resized *in place*, which makes size changes mergeable -- they need
// only an object-level lock and coexist with other clients' updates on the
// same page.

#include <gtest/gtest.h>

#include "core/system.h"
#include "tests/test_util.h"

namespace finelog {
namespace {

class ReservedResizeTest : public ::testing::Test {
 protected:
  void Start(double reserve) {
    SystemConfig config = SmallConfig("reserved_resize");
    config.resize_reserve = reserve;
    auto sys = System::Create(config);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    system_ = std::move(sys).value();
  }
  std::unique_ptr<System> system_;
};

TEST_F(ReservedResizeTest, InPlaceResizeNeedsNoPageLock) {
  Start(/*reserve=*/1.0);  // 2x headroom.
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);

  // c0 creates a reserved object; creation itself is structural.
  TxnId setup = c0.Begin().value();
  auto oid = c0.Create(setup, PageId(1), "tiny");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c0.Commit(setup).ok());

  // Another client's ACTIVE transaction writes a different object on the
  // same page. Under plain resize semantics c0's growth would need a page X
  // lock and block; within reservation it proceeds concurrently.
  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(
      c1.Write(t1, ObjectId{PageId(1), 0}, std::string(system_->config().object_size,
                                               'b'))
          .ok());

  TxnId t0 = c0.Begin().value();
  Status grow = c0.Resize(t0, oid.value(), "tinyplus");  // Fits 2x reserve.
  EXPECT_TRUE(grow.ok()) << grow.ToString();
  ASSERT_TRUE(c0.Commit(t0).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
  EXPECT_GT(system_->metrics().Get(Counter::kClientResizesInPlace), 0u);

  // Both survive merging.
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());
  ASSERT_TRUE(c1.ShipAllDirtyPages().ok());
  Client& c2 = system_->client(2);
  TxnId check = c2.Begin().value();
  EXPECT_EQ(c2.Read(check, oid.value()).value(), "tinyplus");
  ASSERT_TRUE(c2.Commit(check).ok());
}

TEST_F(ReservedResizeTest, GrowthPastReservationFallsBackToPageLock) {
  Start(/*reserve=*/0.5);
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);

  TxnId setup = c0.Begin().value();
  auto oid = c0.Create(setup, PageId(2), "12345678");  // Capacity 12.
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c0.Commit(setup).ok());

  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(
      c1.Write(t1, ObjectId{PageId(2), 0}, std::string(system_->config().object_size,
                                               'c'))
          .ok());

  // Past the reservation: structural, needs page X, blocked by c1's txn.
  TxnId t0 = c0.Begin().value();
  EXPECT_TRUE(c0.Resize(t0, oid.value(), std::string(64, 'z')).IsWouldBlock());
  ASSERT_TRUE(c1.Commit(t1).ok());
  EXPECT_TRUE(c0.Resize(t0, oid.value(), std::string(64, 'z')).ok());
  ASSERT_TRUE(c0.Commit(t0).ok());
}

TEST_F(ReservedResizeTest, NoReservationAlwaysStructural) {
  Start(/*reserve=*/0.0);
  Client& c0 = system_->client(0);
  Client& c1 = system_->client(1);

  TxnId setup = c0.Begin().value();
  auto oid = c0.Create(setup, PageId(3), "exact");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c0.Commit(setup).ok());

  TxnId t1 = c1.Begin().value();
  ASSERT_TRUE(
      c1.Write(t1, ObjectId{PageId(3), 0}, std::string(system_->config().object_size,
                                               'd'))
          .ok());
  TxnId t0 = c0.Begin().value();
  // Growth without reservation conflicts with the active same-page writer.
  EXPECT_TRUE(c0.Resize(t0, oid.value(), "grown-past").IsWouldBlock());
  // Shrink stays within capacity and remains mergeable even at reserve=0.
  EXPECT_TRUE(c0.Resize(t0, oid.value(), "ex").ok());
  ASSERT_TRUE(c0.Commit(t0).ok());
  ASSERT_TRUE(c1.Commit(t1).ok());
}

TEST_F(ReservedResizeTest, InPlaceResizeSurvivesClientCrash) {
  Start(/*reserve=*/1.0);
  Client& c0 = system_->client(0);
  TxnId setup = c0.Begin().value();
  auto oid = c0.Create(setup, PageId(4), "base");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c0.Commit(setup).ok());

  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Resize(txn, oid.value(), "basePlus").ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_TRUE(system_->CrashClient(0).ok());
  ASSERT_TRUE(system_->RecoverClient(0).ok());

  Client& c1 = system_->client(1);
  TxnId check = c1.Begin().value();
  EXPECT_EQ(c1.Read(check, oid.value()).value(), "basePlus");
  ASSERT_TRUE(c1.Commit(check).ok());
}

TEST_F(ReservedResizeTest, InPlaceResizeSurvivesServerCrash) {
  Start(/*reserve=*/1.0);
  Client& c0 = system_->client(0);
  TxnId setup = c0.Begin().value();
  auto oid = c0.Create(setup, PageId(5), "root");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c0.Commit(setup).ok());
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->server().FlushAllPages().ok());

  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Resize(txn, oid.value(), "rootier").ok());
  ASSERT_TRUE(c0.Commit(txn).ok());
  ASSERT_TRUE(c0.ShipAllDirtyPages().ok());
  ASSERT_TRUE(system_->CrashServer().ok());
  ASSERT_TRUE(system_->RecoverAll().ok());

  Client& c1 = system_->client(1);
  TxnId check = c1.Begin().value();
  EXPECT_EQ(c1.Read(check, oid.value()).value(), "rootier");
  ASSERT_TRUE(c1.Commit(check).ok());
}

TEST_F(ReservedResizeTest, AbortUndoesInPlaceResize) {
  Start(/*reserve=*/1.0);
  Client& c0 = system_->client(0);
  TxnId setup = c0.Begin().value();
  auto oid = c0.Create(setup, PageId(6), "before");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(c0.Commit(setup).ok());

  TxnId txn = c0.Begin().value();
  ASSERT_TRUE(c0.Resize(txn, oid.value(), "midway-value").ok());
  ASSERT_TRUE(c0.Abort(txn).ok());
  TxnId check = c0.Begin().value();
  EXPECT_EQ(c0.Read(check, oid.value()).value(), "before");
  ASSERT_TRUE(c0.Commit(check).ok());
}

}  // namespace
}  // namespace finelog
