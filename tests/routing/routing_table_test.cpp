#include "routing/routing_table.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace agentnet {
namespace {

RouteEntry route(NodeId next_hop, std::uint32_t hops, std::size_t at,
                 NodeId gateway = 9) {
  return RouteEntry{next_hop, gateway, hops, at};
}

TEST(RouteEntryTest, DefaultIsInvalid) {
  EXPECT_FALSE(RouteEntry{}.valid());
  EXPECT_TRUE(route(1, 2, 3).valid());
}

TEST(RoutingTablesTest, StartsEmpty) {
  RoutingTables t(4);
  for (NodeId n = 0; n < 4; ++n) EXPECT_FALSE(t.entry(n).valid());
}

TEST(RoutingTablesTest, FirstOfferAlwaysInstalls) {
  RoutingTables t(2);
  EXPECT_TRUE(t.offer(0, route(1, 5, 0), 0));
  EXPECT_EQ(t.entry(0).next_hop, 1u);
  EXPECT_EQ(t.entry(0).hops, 5u);
}

TEST(RoutingTablesTest, ShorterRouteWins) {
  RoutingTables t(2);
  t.offer(0, route(1, 5, 0), 0);
  EXPECT_TRUE(t.offer(0, route(2, 3, 1), 1));
  EXPECT_EQ(t.entry(0).next_hop, 2u);
}

TEST(RoutingTablesTest, LongerFreshRouteLosesWhileCurrent) {
  RoutingTables t(2, RoutePolicy{30});
  t.offer(0, route(1, 3, 0), 0);
  EXPECT_FALSE(t.offer(0, route(2, 5, 10), 10));
  EXPECT_EQ(t.entry(0).next_hop, 1u);
}

TEST(RoutingTablesTest, EqualHopsFresherRefreshes) {
  RoutingTables t(2);
  t.offer(0, route(1, 3, 0), 0);
  EXPECT_TRUE(t.offer(0, route(2, 3, 7), 7));
  EXPECT_EQ(t.entry(0).next_hop, 2u);
  EXPECT_EQ(t.entry(0).installed_at, 7u);
}

TEST(RoutingTablesTest, StaleEntryLosesToAnything) {
  RoutingTables t(2, RoutePolicy{10});
  t.offer(0, route(1, 2, 0), 0);
  // 15 steps later the 2-hop route is stale; a 9-hop candidate wins.
  EXPECT_TRUE(t.offer(0, route(2, 9, 15), 15));
  EXPECT_EQ(t.entry(0).next_hop, 2u);
}

TEST(RoutingTablesTest, NotStaleJustInsideWindow) {
  RoutingTables t(2, RoutePolicy{10});
  t.offer(0, route(1, 2, 0), 0);
  EXPECT_FALSE(t.offer(0, route(2, 9, 10), 10));
}

TEST(RoutingTablesTest, IsStaleSemantics) {
  RoutingTables t(1, RoutePolicy{10});
  EXPECT_TRUE(t.is_stale(RouteEntry{}, 0));  // invalid counts as stale
  const auto e = route(1, 2, 5);
  EXPECT_FALSE(t.is_stale(e, 15));
  EXPECT_TRUE(t.is_stale(e, 16));
}

TEST(RoutingTablesTest, OfferRejectsInvalidCandidate) {
  RoutingTables t(1);
  EXPECT_THROW(t.offer(0, RouteEntry{}, 0), ConfigError);
}

TEST(RoutingTablesTest, ForceAndClear) {
  RoutingTables t(2);
  t.force(1, route(0, 1, 0));
  EXPECT_TRUE(t.entry(1).valid());
  t.clear(1);
  EXPECT_FALSE(t.entry(1).valid());
}

TEST(RoutingTablesTest, RejectsZeroFreshnessWindow) {
  EXPECT_THROW(RoutingTables(1, RoutePolicy{0}), ConfigError);
}

}  // namespace
}  // namespace agentnet
