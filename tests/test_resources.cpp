#include "stream/resources.h"

#include <gtest/gtest.h>

namespace acp::stream {
namespace {

TEST(ResourceVector, Arithmetic) {
  const ResourceVector a(4.0, 100.0), b(1.0, 30.0);
  const auto sum = a + b;
  EXPECT_DOUBLE_EQ(sum.cpu(), 5.0);
  EXPECT_DOUBLE_EQ(sum.memory_mb(), 130.0);
  const auto diff = a - b;
  EXPECT_DOUBLE_EQ(diff.cpu(), 3.0);
  EXPECT_DOUBLE_EQ(diff.memory_mb(), 70.0);
}

TEST(ResourceVector, NonnegativeAndFits) {
  EXPECT_TRUE(ResourceVector(0.0, 0.0).nonnegative());
  EXPECT_FALSE((ResourceVector(1.0, 1.0) - ResourceVector(2.0, 0.0)).nonnegative());
  EXPECT_TRUE(ResourceVector(1.0, 1.0).fits_within(ResourceVector(1.0, 1.0)));
  EXPECT_FALSE(ResourceVector(2.0, 1.0).fits_within(ResourceVector(1.0, 5.0)));
}

TEST(ResourceVector, RejectsNegativeConstruction) {
  EXPECT_THROW(ResourceVector(-1.0, 0.0), acp::PreconditionError);
}

TEST(CongestionTerm, PaperFigure4Example) {
  // Figure 4: memory requirements 20/10/40 MB on nodes with 50/60/60 MB
  // available, bandwidth 200/400 kbps on links with 1000 kbps available:
  // φ = 20/(30+20) + 10/(50+10) + 40/(20+40) + 200/(800+200) + 400/(600+400) = 2.
  const double phi = congestion_term(20, 30) + congestion_term(10, 50) +
                     congestion_term(40, 20) + congestion_term(200, 800) +
                     congestion_term(400, 600);
  EXPECT_NEAR(phi, 0.4 + 1.0 / 6.0 + 2.0 / 3.0 + 0.2 + 0.4, 1e-12);
  EXPECT_NEAR(phi, 20.0 / 50 + 10.0 / 60 + 40.0 / 60 + 200.0 / 1000 + 400.0 / 1000, 1e-12);
}

TEST(CongestionTerm, ZeroDemandContributesNothing) {
  EXPECT_DOUBLE_EQ(congestion_term(0.0, 100.0), 0.0);
}

TEST(CongestionTerm, SaturatesAtOneWhenResidualNonPositive) {
  EXPECT_DOUBLE_EQ(congestion_term(10.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(congestion_term(10.0, -5.0), 1.0);
}

TEST(CongestionTerms, SumsAcrossDimensions) {
  const ResourceVector req(10.0, 20.0);
  const ResourceVector residual(30.0, 60.0);
  EXPECT_NEAR(congestion_terms(req, residual), 10.0 / 40.0 + 20.0 / 80.0, 1e-12);
}

// ---- ReservationPool --------------------------------------------------------

TEST(NodePool, TransientReducesAvailabilityUntilExpiry) {
  NodePool pool(ResourceVector(10.0, 100.0));
  ASSERT_TRUE(pool.reserve_transient(1, 0, ResourceVector(4.0, 40.0), /*now=*/0.0,
                                     /*expires=*/10.0));
  EXPECT_DOUBLE_EQ(pool.available(5.0).cpu(), 6.0);
  // After expiry the reservation evaporates without confirmation.
  EXPECT_DOUBLE_EQ(pool.available(10.0).cpu(), 10.0);
  EXPECT_EQ(pool.live_transient_count(10.0), 0u);
}

TEST(NodePool, TransientRejectedWhenOverCapacity) {
  NodePool pool(ResourceVector(10.0, 100.0));
  ASSERT_TRUE(pool.reserve_transient(1, 0, ResourceVector(8.0, 10.0), 0.0, 10.0));
  EXPECT_FALSE(pool.reserve_transient(2, 0, ResourceVector(5.0, 10.0), 0.0, 10.0));
  // ... but fits once the first expires.
  EXPECT_TRUE(pool.reserve_transient(2, 0, ResourceVector(5.0, 10.0), 11.0, 20.0));
}

TEST(NodePool, DuplicateTagRefreshesInsteadOfDoubleReserving) {
  // Paper footnote 7: one reservation per component per request.
  NodePool pool(ResourceVector(10.0, 100.0));
  ASSERT_TRUE(pool.reserve_transient(1, 3, ResourceVector(6.0, 50.0), 0.0, 10.0));
  ASSERT_TRUE(pool.reserve_transient(1, 3, ResourceVector(6.0, 50.0), 1.0, 20.0));
  EXPECT_DOUBLE_EQ(pool.available(5.0).cpu(), 4.0);  // reserved once, not twice
  EXPECT_DOUBLE_EQ(pool.available(15.0).cpu(), 4.0);  // expiry refreshed to 20
}

TEST(NodePool, ConfirmConvertsTransientToCommitted) {
  NodePool pool(ResourceVector(10.0, 100.0));
  ASSERT_TRUE(pool.reserve_transient(1, 0, ResourceVector(4.0, 40.0), 0.0, 10.0));
  const auto amount = pool.confirm(1, 0, 5.0);
  ASSERT_TRUE(amount);
  EXPECT_EQ(*amount, ResourceVector(4.0, 40.0));  // what moved into the total
  // Committed allocations do not expire.
  EXPECT_DOUBLE_EQ(pool.available(100.0).cpu(), 6.0);
  EXPECT_EQ(pool.committed_count(), 1u);
  pool.release(*amount);
  EXPECT_DOUBLE_EQ(pool.available(100.0).cpu(), 10.0);
  EXPECT_EQ(pool.committed_count(), 0u);
}

TEST(NodePool, ConfirmFailsAfterExpiry) {
  NodePool pool(ResourceVector(10.0, 100.0));
  ASSERT_TRUE(pool.reserve_transient(1, 0, ResourceVector(4.0, 40.0), 0.0, 10.0));
  EXPECT_FALSE(pool.confirm(1, 0, 10.0));
  EXPECT_FALSE(pool.confirm(9, 9, 5.0));  // never existed
}

TEST(NodePool, CancelRequestDropsAllItsTags) {
  NodePool pool(ResourceVector(10.0, 100.0));
  ASSERT_TRUE(pool.reserve_transient(1, 0, ResourceVector(2.0, 10.0), 0.0, 10.0));
  ASSERT_TRUE(pool.reserve_transient(1, 1, ResourceVector(2.0, 10.0), 0.0, 10.0));
  ASSERT_TRUE(pool.reserve_transient(2, 0, ResourceVector(2.0, 10.0), 0.0, 10.0));
  pool.cancel_request(1);
  EXPECT_DOUBLE_EQ(pool.available(5.0).cpu(), 8.0);  // only request 2 remains
}

TEST(NodePool, CancelRequestTagIsNarrow) {
  NodePool pool(ResourceVector(10.0, 100.0));
  ASSERT_TRUE(pool.reserve_transient(1, 0, ResourceVector(2.0, 10.0), 0.0, 10.0));
  ASSERT_TRUE(pool.reserve_transient(1, 1, ResourceVector(2.0, 10.0), 0.0, 10.0));
  pool.cancel_request_tag(1, 0);
  EXPECT_DOUBLE_EQ(pool.available(5.0).cpu(), 8.0);  // tag 1 still held
}

TEST(NodePool, DirectCommitAndRollbackRelease) {
  NodePool pool(ResourceVector(10.0, 100.0));
  ASSERT_TRUE(pool.commit(ResourceVector(4.0, 20.0), 0.0));
  ASSERT_TRUE(pool.commit(ResourceVector(3.0, 20.0), 0.0));
  EXPECT_FALSE(pool.commit(ResourceVector(4.0, 20.0), 0.0));
  EXPECT_EQ(pool.committed_count(), 2u);
  pool.release(ResourceVector(4.0, 20.0));
  EXPECT_EQ(pool.committed_count(), 1u);
  EXPECT_DOUBLE_EQ(pool.available(0.0).cpu(), 7.0);
  // Which records exist is the owner's to know (StreamSystem's commit
  // lists); the pool only refuses a release it has no commit for.
  pool.release(ResourceVector(3.0, 20.0));
  EXPECT_THROW(pool.release(ResourceVector(9.0, 9.0)), acp::PreconditionError);
}

TEST(NodePool, RefreshTakesNoNewRecord) {
  NodePool pool(ResourceVector(10.0, 100.0));
  const Reserved first = pool.reserve_transient(1, 0, ResourceVector(1.0, 1.0), 0.0, 10.0);
  EXPECT_TRUE(first.ok && first.created);
  const Reserved again = pool.reserve_transient(1, 0, ResourceVector(1.0, 1.0), 1.0, 20.0);
  EXPECT_TRUE(again.ok);
  EXPECT_FALSE(again.created);
  const Reserved rejected = pool.reserve_transient(2, 0, ResourceVector(99.0, 1.0), 1.0, 20.0);
  EXPECT_FALSE(rejected.ok || rejected.created);
  EXPECT_TRUE(pool.force_reserve_transient(3, 0, ResourceVector(1.0, 1.0), 1.0, 20.0));
  EXPECT_FALSE(pool.force_reserve_transient(3, 0, ResourceVector(1.0, 1.0), 2.0, 30.0));
}

TEST(NodePool, PruneExpiredReclaimsRecords) {
  NodePool pool(ResourceVector(10.0, 100.0));
  pool.reserve_transient(1, 0, ResourceVector(1.0, 1.0), 0.0, 5.0);
  pool.reserve_transient(2, 0, ResourceVector(1.0, 1.0), 0.0, 50.0);
  EXPECT_EQ(pool.prune_expired(10.0), 1u);
  EXPECT_EQ(pool.live_transient_count(10.0), 1u);
}

TEST(BandwidthPool, ScalarSemantics) {
  BandwidthPool pool(1000.0);
  ASSERT_TRUE(pool.reserve_transient(1, 0, 400.0, 0.0, 10.0));
  EXPECT_DOUBLE_EQ(pool.available(1.0), 600.0);
  EXPECT_FALSE(pool.reserve_transient(2, 0, 700.0, 1.0, 10.0));
  const auto kbps = pool.confirm(1, 0, 1.0);
  ASSERT_TRUE(kbps);
  EXPECT_EQ(*kbps, 400.0);
  EXPECT_DOUBLE_EQ(pool.available(99.0), 600.0);
  pool.release(*kbps);
  EXPECT_DOUBLE_EQ(pool.available(99.0), 1000.0);
}

TEST(BandwidthPool, RejectsBadExpiry) {
  BandwidthPool pool(100.0);
  EXPECT_THROW(pool.reserve_transient(1, 0, 10.0, 5.0, 5.0), acp::PreconditionError);
}

}  // namespace
}  // namespace acp::stream
