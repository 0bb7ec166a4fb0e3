#include "energy/battery.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "obs/scope.hpp"

namespace agentnet {
namespace {

TEST(BatteryTest, StartsFull) {
  Battery b({2.0, 0.1});
  EXPECT_DOUBLE_EQ(b.charge(), 2.0);
  EXPECT_DOUBLE_EQ(b.fraction(), 1.0);
  EXPECT_FALSE(b.depleted());
}

TEST(BatteryTest, DrainsLinearly) {
  Battery b({1.0, 0.25});
  b.step();
  EXPECT_DOUBLE_EQ(b.fraction(), 0.75);
  b.step();
  EXPECT_DOUBLE_EQ(b.fraction(), 0.5);
}

TEST(BatteryTest, NeverGoesNegative) {
  Battery b({1.0, 0.4});
  for (int i = 0; i < 10; ++i) b.step();
  EXPECT_DOUBLE_EQ(b.charge(), 0.0);
  EXPECT_TRUE(b.depleted());
}

TEST(BatteryTest, ZeroDrainIsMainsPower) {
  Battery b({1.0, 0.0});
  for (int i = 0; i < 1000; ++i) b.step();
  EXPECT_DOUBLE_EQ(b.fraction(), 1.0);
}

TEST(BatteryTest, RejectsBadParams) {
  EXPECT_THROW(Battery({0.0, 0.1}), ConfigError);
  EXPECT_THROW(Battery({-1.0, 0.1}), ConfigError);
  EXPECT_THROW(Battery({1.0, -0.1}), ConfigError);
}

TEST(BatteryBankTest, MaskSelectsWhoDrains) {
  BatteryBank bank(3, {true, false, true}, {1.0, 0.5});
  bank.step();
  EXPECT_DOUBLE_EQ(bank.fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(bank.fraction(1), 1.0);
  EXPECT_DOUBLE_EQ(bank.fraction(2), 0.5);
  EXPECT_TRUE(bank.on_battery(0));
  EXPECT_FALSE(bank.on_battery(1));
}

TEST(BatteryBankTest, MainsNodesReportFullForever) {
  BatteryBank bank(1, {false}, {1.0, 0.9});
  for (int i = 0; i < 100; ++i) bank.step();
  EXPECT_DOUBLE_EQ(bank.fraction(0), 1.0);
}

TEST(BatteryBankTest, RejectsMaskSizeMismatch) {
  EXPECT_THROW(BatteryBank(3, {true, false}, {}), ConfigError);
}

TEST(BatteryBankTest, SizeReported) {
  BatteryBank bank(5, std::vector<bool>(5, true), {1.0, 0.01});
  EXPECT_EQ(bank.size(), 5u);
}

TEST(BatteryBankTest, BatteryAccessor) {
  BatteryBank bank(2, {true, true}, {4.0, 1.0});
  bank.step();
  EXPECT_DOUBLE_EQ(bank.battery(0).charge(), 3.0);
}

// Pinned bank run on a mixed mask: 2,000 nodes, every third on battery,
// charges staggered through a restored snapshot so deaths spread over the
// run. The digest covers the final save_state bytes and every
// kBatteryDeath event in emission order; a pure speed-up must not move it.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(BatteryBankTest, MixedMaskGolden) {
  constexpr std::size_t kNodes = 2000;
  std::vector<bool> on_battery(kNodes, false);
  for (std::size_t i = 0; i < kNodes; i += 3) on_battery[i] = true;
  BatteryBank bank(kNodes, on_battery, {1.0, 0.01});
  snapshot::ByteWriter staggered;
  staggered.size(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i)
    staggered.f64(static_cast<double>((i * 37) % 101) / 100.0);
  staggered.size(0);
  snapshot::ByteReader r(staggered.bytes());
  bank.load_state(r);

  obs::RunObs slot;
  slot.trace.enable();
  obs::ObsRunScope scope(slot);
  for (int t = 0; t < 150; ++t) bank.step();
  snapshot::ByteWriter w;
  bank.save_state(w);
  for (const obs::TraceEvent& e : slot.trace.events()) {
    EXPECT_EQ(e.kind, obs::TraceEventKind::kBatteryDeath);
    w.u64(e.step);
    w.u64(static_cast<std::uint64_t>(e.a));
  }
  EXPECT_EQ(slot.counters.value(obs::Counter::kBatteryDeaths), 660u);
  EXPECT_EQ(fnv1a(w.bytes()), 0x3f2241e871e03f75ull);
}

}  // namespace
}  // namespace agentnet
