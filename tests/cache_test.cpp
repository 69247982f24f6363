#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/consistency.hpp"
#include "cache/query_cache.hpp"
#include "cache/read_only_cache.hpp"
#include "cache/update.hpp"

namespace mutsvc::cache {
namespace {

db::RowRef row(std::int64_t id, double price) { return db::RowRef::make(db::Row{id, price}); }

// --- ReadOnlyCache -----------------------------------------------------------

TEST(ReadOnlyCacheTest, MissThenFillThenHit) {
  ReadOnlyCache c{"Item"};
  EXPECT_EQ(c.get(1), nullptr);
  EXPECT_EQ(c.misses(), 1u);
  c.fill(1, row(1, 9.99), 3);
  auto entry = c.get(1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version, 3u);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(ReadOnlyCacheTest, PushOverwritesAndCounts) {
  ReadOnlyCache c{"Item"};
  c.fill(1, row(1, 9.99), 1);
  c.apply_push(1, row(1, 19.99), 2);
  auto entry = c.get(1);
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(db::as_real((*entry->row)[1]), 19.99);
  EXPECT_EQ(entry->version, 2u);
  EXPECT_EQ(c.pushes_applied(), 1u);
}

TEST(ReadOnlyCacheTest, InvalidateSingleAndAll) {
  ReadOnlyCache c{"Item"};
  c.fill(1, row(1, 1.0), 1);
  c.fill(2, row(2, 2.0), 1);
  c.invalidate(1);
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  c.invalidate_all();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.invalidations(), 2u);
}

TEST(ReadOnlyCacheTest, HitRateZeroWhenUntouched) {
  ReadOnlyCache c{"Item"};
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.0);
}

TEST(ReadOnlyCacheTest, TimeoutInvalidationExpiresStaleEntries) {
  using sim::ms;
  using sim::SimTime;
  ReadOnlyCache c{"Item"};
  c.fill(1, row(1, 1.0), 1, SimTime::origin());
  // Fresh within the TTL.
  auto fresh = c.get_if_fresh(1, SimTime::origin() + ms(500), sim::sec(1));
  EXPECT_NE(fresh, nullptr);
  // Expired past the TTL: entry dropped, counted as a miss.
  auto expired = c.get_if_fresh(1, SimTime::origin() + sim::sec(2), sim::sec(1));
  EXPECT_EQ(expired, nullptr);
  EXPECT_EQ(c.timeout_invalidations(), 1u);
  EXPECT_FALSE(c.contains(1));
}

TEST(ReadOnlyCacheTest, ZeroTtlNeverExpires) {
  using sim::SimTime;
  ReadOnlyCache c{"Item"};
  c.fill(1, row(1, 1.0), 1, SimTime::origin());
  auto entry = c.get_if_fresh(1, SimTime::origin() + sim::sec(3600), sim::Duration::zero());
  EXPECT_NE(entry, nullptr);
  EXPECT_EQ(c.timeout_invalidations(), 0u);
}

TEST(ReadOnlyCacheTest, PushRefreshesTheTtlClock) {
  using sim::SimTime;
  ReadOnlyCache c{"Item"};
  c.fill(1, row(1, 1.0), 1, SimTime::origin());
  c.apply_push(1, row(1, 2.0), 2, SimTime::origin() + sim::sec(10));
  // 11s after the fill but only 1s after the push: still fresh.
  auto entry = c.get_if_fresh(1, SimTime::origin() + sim::sec(11), sim::sec(5));
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(db::as_real((*entry->row)[1]), 2.0);
}

TEST(ReadOnlyCacheTest, ReorderedPushKeepsNewerEntry) {
  // Regression: two pushes delivered out of order (v2's wide-area hop
  // overtaken by v1's retry, or per-edge sequencing across batches). The
  // replica must keep the newer entry and reject the older push, exactly as
  // fill() already does for stale pull-refreshes.
  ReadOnlyCache c{"Item"};
  c.apply_push(1, row(1, 2.0), 2);
  c.apply_push(1, row(1, 1.0), 1);  // late, older: must not regress
  auto entry = c.get(1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version, 2u);
  EXPECT_DOUBLE_EQ(db::as_real((*entry->row)[1]), 2.0);
  EXPECT_EQ(c.pushes_applied(), 1u);
  EXPECT_EQ(c.stale_pushes_rejected(), 1u);
}

TEST(ReadOnlyCacheTest, EqualVersionPushReapplies) {
  // At-least-once redelivery of the same batch is idempotent in content;
  // re-applying an equal version is allowed (not counted as stale).
  ReadOnlyCache c{"Item"};
  c.apply_push(1, row(1, 2.0), 2);
  c.apply_push(1, row(1, 2.0), 2);
  EXPECT_EQ(c.pushes_applied(), 2u);
  EXPECT_EQ(c.stale_pushes_rejected(), 0u);
}

TEST(ReadOnlyCacheTest, ResetStatsClearsCountersKeepsEntries) {
  using sim::SimTime;
  ReadOnlyCache c{"Item"};
  c.fill(1, row(1, 1.0), 2, SimTime::origin());
  (void)c.get(1);
  (void)c.get(9);
  c.apply_push(1, row(1, 2.0), 3);
  c.apply_push(1, row(1, 1.5), 1);
  c.fill(1, row(1, 0.5), 1);  // stale fill, rejected
  c.invalidate(1);
  (void)c.get_if_fresh(2, SimTime::origin(), sim::sec(1));
  c.reset_stats();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_EQ(c.pushes_applied(), 0u);
  EXPECT_EQ(c.invalidations(), 0u);
  EXPECT_EQ(c.stale_fills_rejected(), 0u);
  EXPECT_EQ(c.stale_pushes_rejected(), 0u);
  EXPECT_EQ(c.timeout_invalidations(), 0u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.0);
}

// --- ConsistencyTracker: coordinated version allocation -------------------------

TEST(ConsistencyTrackerTest, AllocateIsMonotoneAcrossConcurrentTransactions) {
  ConsistencyTracker t;
  // Two transactions allocate before either advances: distinct versions.
  const std::uint64_t a = t.allocate("k");
  const std::uint64_t b = t.allocate("k");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(t.master_version("k"), 0u);  // readable master untouched
  t.advance_to("k", a);
  EXPECT_EQ(t.master_version("k"), 1u);
  t.advance_to("k", b);
  EXPECT_EQ(t.master_version("k"), 2u);
  // Late advance with an older version is a no-op.
  t.advance_to("k", a);
  EXPECT_EQ(t.master_version("k"), 2u);
  // Next allocation continues above everything seen.
  EXPECT_EQ(t.allocate("k"), 3u);
}

TEST(ConsistencyTrackerTest, WriteWriteConcurrencyOnSharedQueryKeyStaysZeroStale) {
  // Two transactions write entities feeding the same aggregate query key.
  // Under blocking push each installs its pushed entries at replicas before
  // advancing the master — whatever the interleaving of allocate/advance_to,
  // a reader that observes the replica's installed version is never stale.
  ConsistencyTracker t;
  const std::string q = "query:topSellers";

  // Interleaving 1: allocate/allocate, advance in allocation order.
  const std::uint64_t v1 = t.allocate(q);
  const std::uint64_t v2 = t.allocate(q);
  t.advance_to(q, v1);
  t.observe_read(q, std::max(v1, t.master_version(q)));
  t.advance_to(q, v2);
  t.observe_read(q, t.master_version(q));
  EXPECT_EQ(t.stale_reads(), 0u);

  // Interleaving 2: the later transaction commits (and advances) first —
  // the replica holds v4; when v3's advance arrives late it must not
  // regress the master below what readers already saw.
  const std::uint64_t v3 = t.allocate(q);
  const std::uint64_t v4 = t.allocate(q);
  EXPECT_LT(v3, v4);
  t.advance_to(q, v4);
  t.observe_read(q, v4);
  t.advance_to(q, v3);  // late, smaller: no-op
  EXPECT_EQ(t.master_version(q), v4);
  t.observe_read(q, v4);
  EXPECT_EQ(t.stale_reads(), 0u);
  EXPECT_EQ(t.reads(), 4u);
}

TEST(ConsistencyTrackerTest, AllocationEntriesAreReclaimedWhenMasterCatchesUp) {
  ConsistencyTracker t;
  const std::uint64_t a = t.allocate("k1");
  const std::uint64_t b = t.allocate("k1");
  (void)t.allocate("k2");
  EXPECT_EQ(t.pending_allocations(), 2u);
  t.advance_to("k1", a);
  // b is still in flight for k1: the entry must survive.
  EXPECT_EQ(t.pending_allocations(), 2u);
  t.advance_to("k1", b);
  EXPECT_EQ(t.pending_allocations(), 1u);  // only k2 outstanding
  // Reclamation must not change allocation monotonicity.
  EXPECT_EQ(t.allocate("k1"), b + 1);
  t.advance_to("k1", b + 1);
  t.advance_to("k2", 1);
  EXPECT_EQ(t.pending_allocations(), 0u);
}

// --- QueryCache ----------------------------------------------------------------

TEST(QueryCacheTest, FillGetInvalidate) {
  QueryCache qc;
  EXPECT_EQ(qc.get("k1"), nullptr);
  qc.fill("k1", {row(1, 1.0), row(2, 2.0)}, 5);
  auto entry = qc.get("k1");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->rows.size(), 2u);
  EXPECT_EQ(entry->version, 5u);
  qc.invalidate("k1");
  EXPECT_FALSE(qc.contains("k1"));
  EXPECT_EQ(qc.invalidations(), 1u);
}

TEST(QueryCacheTest, InvalidateMissingIsNotCounted) {
  QueryCache qc;
  qc.invalidate("ghost");
  EXPECT_EQ(qc.invalidations(), 0u);
}

TEST(QueryCacheTest, PushRefreshReplacesRows) {
  QueryCache qc;
  qc.fill("k", {row(1, 1.0)}, 1);
  qc.apply_push("k", {row(1, 1.0), row(2, 2.0)}, 2);
  auto entry = qc.get("k");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->rows.size(), 2u);
  EXPECT_EQ(qc.pushes_applied(), 1u);
}

TEST(QueryCacheTest, ReorderedPushKeepsNewerRows) {
  // Regression: under async updates two batches can reach an edge out of
  // order (per-subscriber redelivery after a partition). The cache must
  // keep the v2 result set when v1's push lands late.
  QueryCache qc;
  qc.apply_push("k", {row(1, 1.0), row(2, 2.0)}, 2);
  qc.apply_push("k", {row(1, 1.0)}, 1);  // late, older: must not regress
  auto entry = qc.get("k");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version, 2u);
  EXPECT_EQ(entry->rows.size(), 2u);
  EXPECT_EQ(qc.pushes_applied(), 1u);
  EXPECT_EQ(qc.stale_pushes_rejected(), 1u);
}

TEST(QueryCacheTest, ResetStatsClearsCountersKeepsEntries) {
  QueryCache qc;
  qc.fill("k", {row(1, 1.0)}, 1);
  (void)qc.get("k");
  (void)qc.get("ghost");
  qc.apply_push("k", {row(1, 2.0)}, 3);
  qc.apply_push("k", {row(1, 1.0)}, 2);
  qc.invalidate("k");
  qc.apply_push("k", {row(1, 2.0)}, 3);  // re-install after invalidation
  qc.reset_stats();
  EXPECT_EQ(qc.hits(), 0u);
  EXPECT_EQ(qc.misses(), 0u);
  EXPECT_EQ(qc.pushes_applied(), 0u);
  EXPECT_EQ(qc.invalidations(), 0u);
  EXPECT_EQ(qc.stale_pushes_rejected(), 0u);
  EXPECT_TRUE(qc.contains("k"));  // entries survive a stats reset
}

TEST(QueryCacheTest, ClearDropsEverything) {
  QueryCache qc;
  qc.fill("a", {}, 1);
  qc.fill("b", {}, 1);
  qc.clear();
  EXPECT_EQ(qc.size(), 0u);
}

// --- ConsistencyTracker -----------------------------------------------------------

TEST(ConsistencyTrackerTest, BumpAdvancesVersion) {
  ConsistencyTracker t;
  EXPECT_EQ(t.master_version("Item:1"), 0u);
  EXPECT_EQ(t.bump("Item:1"), 1u);
  EXPECT_EQ(t.bump("Item:1"), 2u);
  EXPECT_EQ(t.master_version("Item:1"), 2u);
  EXPECT_EQ(t.master_version("Item:2"), 0u);
}

TEST(ConsistencyTrackerTest, FreshReadsNotStale) {
  ConsistencyTracker t;
  (void)t.bump("k");
  t.observe_read("k", 1);
  EXPECT_EQ(t.reads(), 1u);
  EXPECT_EQ(t.stale_reads(), 0u);
  EXPECT_DOUBLE_EQ(t.stale_fraction(), 0.0);
}

TEST(ConsistencyTrackerTest, StaleReadsCountedWithLag) {
  ConsistencyTracker t;
  (void)t.bump("k");
  (void)t.bump("k");
  (void)t.bump("k");
  t.observe_read("k", 1);  // lag 2
  t.observe_read("k", 3);  // fresh
  EXPECT_EQ(t.stale_reads(), 1u);
  EXPECT_DOUBLE_EQ(t.stale_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(t.mean_version_lag(), 2.0);
}

TEST(ConsistencyTrackerTest, ReadNewerThanMasterNotStale) {
  // Blocking push installs version master+1 at replicas before the master
  // version advances; such reads must not be counted stale.
  ConsistencyTracker t;
  (void)t.bump("k");
  t.observe_read("k", 2);
  EXPECT_EQ(t.stale_reads(), 0u);
}

TEST(ConsistencyTrackerTest, ResetKeepsVersions) {
  ConsistencyTracker t;
  (void)t.bump("k");
  t.observe_read("k", 0);
  t.reset_read_stats();
  EXPECT_EQ(t.reads(), 0u);
  EXPECT_EQ(t.stale_reads(), 0u);
  EXPECT_EQ(t.master_version("k"), 1u);
}

// --- UpdateBatch -----------------------------------------------------------------

TEST(UpdateBatchTest, EmptyAndWireBytes) {
  UpdateBatch b;
  EXPECT_TRUE(b.empty());
  b.entities.push_back(EntityUpdate{"Item", 1, row(1, 9.99), 2});
  EXPECT_FALSE(b.empty());
  net::Bytes full = b.wire_bytes(false);
  net::Bytes delta = b.wire_bytes(true);
  EXPECT_GT(full, 0);
  EXPECT_LT(delta, full);  // §4.3: transfer only modified fields
}

TEST(UpdateBatchTest, InvalidationOnlyQueriesAreSmall) {
  UpdateBatch push;
  QueryRefresh r;
  r.cache_key = "k";
  r.rows = {row(1, 1.0), row(2, 2.0), row(3, 3.0)};
  push.queries.push_back(r);

  UpdateBatch invalidate;
  QueryRefresh inv;
  inv.cache_key = "k";
  inv.invalidate_only = true;
  invalidate.queries.push_back(inv);

  EXPECT_GT(push.wire_bytes(), invalidate.wire_bytes());
}

}  // namespace
}  // namespace mutsvc::cache
