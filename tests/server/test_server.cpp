#include "server/server.h"

#include <gtest/gtest.h>

#include <memory>

namespace eclb::server {
namespace {

using common::AppId;
using common::Seconds;
using common::ServerId;
using common::VmId;
using common::Watts;

ServerConfig make_config() {
  ServerConfig cfg;
  cfg.thresholds.alpha_sopt_low = 0.22;
  cfg.thresholds.alpha_opt_low = 0.35;
  cfg.thresholds.alpha_opt_high = 0.70;
  cfg.thresholds.alpha_sopt_high = 0.82;
  cfg.power_model = std::make_shared<energy::LinearPowerModel>(Watts{200.0}, 0.5);
  return cfg;
}

Server make_server(std::uint32_t id = 0) {
  return Server(ServerId{id}, make_config());
}

vm::Vm make_vm(std::uint32_t id, double demand) {
  return vm::Vm(VmId{id}, AppId{id}, demand);
}

TEST(Server, StartsEmptyAwakeIdle) {
  Server s = make_server();
  EXPECT_DOUBLE_EQ(s.load(), 0.0);
  EXPECT_EQ(s.vm_count(), 0U);
  EXPECT_TRUE(s.awake(Seconds{0.0}));
  EXPECT_EQ(s.cstate(), energy::CState::kC0);
  ASSERT_TRUE(s.regime().has_value());
  EXPECT_EQ(*s.regime(), energy::Regime::kR1UndesirableLow);
  EXPECT_DOUBLE_EQ(s.power(Seconds{0.0}).value, 100.0);  // idle = 50 % of 200 W
}

TEST(Server, PlaceAccumulatesLoad) {
  Server s = make_server();
  EXPECT_TRUE(s.place(make_vm(1, 0.3)));
  EXPECT_TRUE(s.place(make_vm(2, 0.2)));
  EXPECT_DOUBLE_EQ(s.load(), 0.5);
  EXPECT_EQ(s.vm_count(), 2U);
  EXPECT_EQ(*s.regime(), energy::Regime::kR3Optimal);
}

TEST(Server, PlaceRejectsOverCapacity) {
  Server s = make_server();
  EXPECT_TRUE(s.place(make_vm(1, 0.7)));
  EXPECT_FALSE(s.place(make_vm(2, 0.4)));
  EXPECT_EQ(s.vm_count(), 1U);
}

TEST(Server, ForcePlaceMayOversubscribe) {
  Server s = make_server();
  s.force_place(make_vm(1, 0.7));
  s.force_place(make_vm(2, 0.6));
  EXPECT_DOUBLE_EQ(s.load(), 1.3);
  EXPECT_DOUBLE_EQ(s.served_load(), 1.0);
  EXPECT_DOUBLE_EQ(s.overload(), 0.3);
}

TEST(Server, RemoveReturnsVm) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.3)));
  auto removed = s.remove(VmId{1});
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id(), VmId{1});
  EXPECT_DOUBLE_EQ(s.load(), 0.0);
  EXPECT_FALSE(s.remove(VmId{1}).has_value());
}

TEST(Server, FindLocatesHostedVm) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(5, 0.2)));
  ASSERT_NE(s.find(VmId{5}), nullptr);
  EXPECT_EQ(s.find(VmId{5})->demand(), 0.2);
  EXPECT_EQ(s.find(VmId{99}), nullptr);
}

TEST(Server, HeadroomCalculations) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.4)));
  EXPECT_DOUBLE_EQ(s.headroom(), 0.6);
  EXPECT_DOUBLE_EQ(s.headroom_to(0.7), 0.3);
  EXPECT_DOUBLE_EQ(s.headroom_to(0.3), 0.0);  // already above target
}

TEST(Server, VerticalScaleWithinCapacity) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.3)));
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.5));
  EXPECT_DOUBLE_EQ(s.load(), 0.5);
}

TEST(Server, VerticalScaleRejectsOverCapacity) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.5)));
  ASSERT_TRUE(s.place(make_vm(2, 0.4)));
  EXPECT_FALSE(s.try_vertical_scale(VmId{1}, 0.7));
  EXPECT_DOUBLE_EQ(s.load(), 0.9);  // unchanged
}

TEST(Server, VerticalShrinkAlwaysSucceeds) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.9)));
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.1));
  EXPECT_DOUBLE_EQ(s.load(), 0.1);
}

TEST(Server, VerticalScaleUnknownVmFails) {
  Server s = make_server();
  EXPECT_FALSE(s.try_vertical_scale(VmId{42}, 0.5));
}

TEST(Server, ForceDemandOversubscribes) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.5)));
  EXPECT_TRUE(s.force_demand(VmId{1}, 0.9));
  ASSERT_TRUE(s.place(make_vm(2, 0.1)));
  EXPECT_TRUE(s.force_demand(VmId{2}, 0.5));
  EXPECT_GT(s.load(), 1.0);
}

TEST(Server, RequestStateInstallsDemandAndQueueMirrorByPosition) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.2)));
  ASSERT_TRUE(s.place(make_vm(2, 0.3)));
  // Roster position 1 is VM 2; an oversubscribing demand is taken as is.
  s.set_vm_request_state(1, 0.9, 7, 12.5);
  EXPECT_DOUBLE_EQ(s.find(VmId{2})->demand(), 0.9);
  EXPECT_DOUBLE_EQ(s.find(VmId{1})->demand(), 0.2);
  EXPECT_DOUBLE_EQ(s.load(), 1.1);
  EXPECT_EQ(s.queued_requests(), 7U);
  EXPECT_DOUBLE_EQ(s.queued_work(), 12.5);
}

TEST(Server, RegimeTracksLoad) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.1)));
  EXPECT_EQ(*s.regime(), energy::Regime::kR1UndesirableLow);
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.3));
  EXPECT_EQ(*s.regime(), energy::Regime::kR2SuboptimalLow);
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.5));
  EXPECT_EQ(*s.regime(), energy::Regime::kR3Optimal);
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.75));
  EXPECT_EQ(*s.regime(), energy::Regime::kR4SuboptimalHigh);
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.9));
  EXPECT_EQ(*s.regime(), energy::Regime::kR5UndesirableHigh);
}

TEST(Server, SleepWakeCycle) {
  Server s = make_server();
  const Seconds asleep_at = s.begin_sleep(energy::CState::kC3, Seconds{10.0});
  EXPECT_GT(asleep_at.value, 10.0);
  EXPECT_FALSE(s.awake(Seconds{10.5}));
  s.settle(asleep_at);
  EXPECT_EQ(s.cstate(), energy::CState::kC3);
  ASSERT_FALSE(s.regime().has_value());  // asleep servers have no regime

  const Seconds awake_at = s.begin_wake(asleep_at);
  EXPECT_DOUBLE_EQ(awake_at.value - asleep_at.value, 30.0);  // C3 wake latency
  EXPECT_FALSE(s.awake(awake_at - Seconds{1.0}));
  s.settle(awake_at);
  EXPECT_TRUE(s.awake(awake_at));
}

TEST(Server, PlaceRejectedWhileAsleep) {
  Server s = make_server();
  s.begin_sleep(energy::CState::kC6, Seconds{0.0});
  s.settle(Seconds{100.0});
  EXPECT_FALSE(s.place(make_vm(1, 0.1)));
}

TEST(Server, SleepPowerIsHoldFraction) {
  Server s = make_server();
  s.begin_sleep(energy::CState::kC6, Seconds{0.0});
  s.settle(Seconds{100.0});
  EXPECT_DOUBLE_EQ(s.power(Seconds{100.0}).value, 0.01 * 200.0);
}

TEST(Server, WakePowerNearPeakDuringTransition) {
  Server s = make_server();
  s.begin_sleep(energy::CState::kC3, Seconds{0.0});
  s.settle(Seconds{10.0});
  s.begin_wake(Seconds{10.0});
  EXPECT_DOUBLE_EQ(s.power(Seconds{20.0}).value, 0.95 * 200.0);
}

TEST(Server, EnergyIntegratesIdlePower) {
  Server s = make_server();
  s.update_energy(Seconds{100.0});
  // 100 s at 100 W idle.
  EXPECT_NEAR(s.energy_used().value, 10000.0, 1e-6);
}

TEST(Server, EnergyReflectsLoadChanges) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 1.0)));
  s.update_energy(Seconds{0.0});  // re-sample at full load
  s.update_energy(Seconds{10.0});
  // 10 s at 200 W peak.
  EXPECT_NEAR(s.energy_used().value, 2000.0, 1e-6);
}

TEST(Server, EnergyAcrossSleepCycle) {
  Server s = make_server();
  s.update_energy(Seconds{10.0});          // 10 s idle at 100 W = 1000 J
  s.begin_sleep(energy::CState::kC3, Seconds{10.0});
  s.settle(Seconds{11.0});
  s.update_energy(Seconds{11.0});          // 1 s entry at idle = 100 J
  s.update_energy(Seconds{111.0});         // 100 s hold at 10 W = 1000 J
  EXPECT_NEAR(s.energy_used().value, 1000.0 + 100.0 + 1000.0, 1e-6);
}

TEST(Server, ChargeEnergyAddsLumpSum) {
  Server s = make_server();
  s.charge_energy(common::Joules{55.0});
  EXPECT_DOUBLE_EQ(s.energy_used().value, 55.0);
}

TEST(ServerDeathTest, SleepWithVmsAborts) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.2)));
  EXPECT_DEATH(s.begin_sleep(energy::CState::kC3, Seconds{0.0}),
               "still hosts VMs");
}

TEST(ServerDeathTest, WakeWhileAwakeAborts) {
  Server s = make_server();
  EXPECT_DEATH(s.begin_wake(Seconds{0.0}), "already awake");
}

TEST(ServerDeathTest, MissingPowerModelAborts) {
  ServerConfig cfg = make_config();
  cfg.power_model = nullptr;
  EXPECT_DEATH(Server(ServerId{0}, cfg), "power model required");
}

}  // namespace
}  // namespace eclb::server
