#include "qos/admission.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "qos/tenant.h"
#include "util/clock.h"

namespace monarch::qos {
namespace {

TenantContext Job(int id) {
  TenantContext tenant;
  tenant.tenant_id = id;
  tenant.name = "job" + std::to_string(id);
  return tenant;
}

AdmissionController::Options Capacity(std::uint64_t bytes) {
  AdmissionController::Options options;
  options.capacity_bytes = bytes;
  return options;
}

TEST(AdmissionTest, DisabledControllerAdmitsEverything) {
  AdmissionController controller(Capacity(0));
  EXPECT_FALSE(controller.enabled());
  EXPECT_EQ(AdmissionDecision::kAdmit,
            controller.Request(Job(1), std::uint64_t{1} << 40));
}

TEST(AdmissionTest, AdmitsWithinQueueThreshold) {
  AdmissionController controller(Capacity(1000));
  EXPECT_EQ(AdmissionDecision::kAdmit, controller.Request(Job(1), 500));
  EXPECT_EQ(AdmissionDecision::kAdmit, controller.Request(Job(2), 300));
  EXPECT_EQ(800u, controller.GetStats().committed_bytes);
}

TEST(AdmissionTest, QueuesWhenCommittedFootprintWouldThrash) {
  AdmissionController controller(Capacity(1000));
  ASSERT_EQ(AdmissionDecision::kAdmit, controller.Request(Job(1), 800));
  // 800 + 200 > 1000 * 0.85 -> queue, and nothing extra is committed.
  EXPECT_EQ(AdmissionDecision::kQueue, controller.Request(Job(2), 200));
  EXPECT_EQ(800u, controller.GetStats().committed_bytes);
}

TEST(AdmissionTest, RejectsFootprintThatCanNeverFit) {
  AdmissionController controller(Capacity(1000));
  // 1501 > 1000 * 1.5: even an empty cluster could not hold it.
  EXPECT_EQ(AdmissionDecision::kReject, controller.Request(Job(1), 1501));
  EXPECT_EQ(AdmissionDecision::kAdmit, controller.Request(Job(2), 600));
}

TEST(AdmissionTest, ReleaseFreesCommittedFootprint) {
  AdmissionController controller(Capacity(1000));
  ASSERT_EQ(AdmissionDecision::kAdmit, controller.Request(Job(1), 800));
  EXPECT_EQ(AdmissionDecision::kQueue, controller.Request(Job(2), 400));
  controller.Release(1);
  EXPECT_EQ(0u, controller.GetStats().committed_bytes);
  EXPECT_EQ(AdmissionDecision::kAdmit, controller.Request(Job(2), 400));
  controller.Release(99);  // unknown tenant: no-op, no underflow
  EXPECT_EQ(400u, controller.GetStats().committed_bytes);
}

TEST(AdmissionTest, AwaitAdmissionUnblocksWhenFootprintReleases) {
  AdmissionController controller(Capacity(1000));
  ASSERT_EQ(AdmissionDecision::kAdmit, controller.Request(Job(1), 800));
  std::atomic<int> state{0};  // 0 = waiting, 1 = admitted, -1 = refused
  std::thread waiter([&] {
    state.store(controller.AwaitAdmission(Job(2), 300) ? 1 : -1);
  });
  PreciseSleep(Millis(30));
  EXPECT_EQ(0, state.load()) << "waiter should be queued";
  controller.Release(1);
  waiter.join();
  EXPECT_EQ(1, state.load());
  EXPECT_EQ(300u, controller.GetStats().committed_bytes);
}

TEST(AdmissionTest, AwaitAdmissionReturnsFalseOnReject) {
  AdmissionController controller(Capacity(1000));
  EXPECT_FALSE(controller.AwaitAdmission(Job(1), 2000));
}

TEST(AdmissionTest, ShutdownReleasesQueuedWaiters) {
  AdmissionController controller(Capacity(1000));
  ASSERT_EQ(AdmissionDecision::kAdmit, controller.Request(Job(1), 800));
  std::atomic<int> state{0};
  std::thread waiter([&] {
    state.store(controller.AwaitAdmission(Job(2), 300) ? 1 : -1);
  });
  PreciseSleep(Millis(30));
  controller.Shutdown();
  waiter.join();
  EXPECT_EQ(-1, state.load());
}

TEST(AdmissionTest, StatsCountEveryDecision) {
  AdmissionController controller(Capacity(1000));
  (void)controller.Request(Job(1), 500);   // admit
  (void)controller.Request(Job(2), 500);   // queue (500+500 > 850)
  (void)controller.Request(Job(3), 5000);  // reject
  const AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(1u, stats.admitted);
  EXPECT_EQ(1u, stats.queued);
  EXPECT_EQ(1u, stats.rejected);
}

TEST(AdmissionTest, DecisionNamesAreStable) {
  EXPECT_STREQ("admit", AdmissionDecisionName(AdmissionDecision::kAdmit));
  EXPECT_STREQ("queue", AdmissionDecisionName(AdmissionDecision::kQueue));
  EXPECT_STREQ("reject", AdmissionDecisionName(AdmissionDecision::kReject));
}

}  // namespace
}  // namespace monarch::qos
