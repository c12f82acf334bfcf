// Unit tests for the writer AdmissionController (server/admission.h) and
// the SessionManager's overload surfaces (docs/OVERLOAD.md): slot
// accounting, queue-full and queue-deadline shedding, the escalating
// retry-after hint, cancellation while queued, the structured
// session-limit refusal, and the Inspect() snapshot.

#include "server/admission.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "server/session_manager.h"
#include "test_util.h"

namespace sopr {
namespace server {
namespace {

using std::chrono::milliseconds;

/// Parses the "retry-after-ms=<n>" hint out of a refusal message; -1 if
/// absent — the STRUCTURE of the message is part of the contract.
int64_t RetryAfterMs(const Status& st) {
  const std::string key = "retry-after-ms=";
  const size_t pos = st.message().find(key);
  if (pos == std::string::npos) return -1;
  return std::strtoll(st.message().c_str() + pos + key.size(), nullptr, 10);
}

TEST(AdmissionControllerTest, AdmitsUpToTheInflightLimit) {
  AdmissionOptions options;
  options.max_inflight_writers = 2;
  options.max_queued_writers = 0;
  AdmissionController ctrl(options);

  auto a = ctrl.Admit();
  auto b = ctrl.Admit();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a.value().admitted() && b.value().admitted());
  EXPECT_EQ(ctrl.stats().inflight, 2u);

  auto c = ctrl.Admit();
  EXPECT_EQ(c.status().code(), StatusCode::kOverloaded);
  EXPECT_GE(RetryAfterMs(c.status()), 0) << c.status();
  EXPECT_EQ(ctrl.stats().shed_queue_full, 1u);

  { AdmissionController::Slot dropped = std::move(a).value(); }
  EXPECT_EQ(ctrl.stats().inflight, 1u) << "slot release on destruction";
  auto d = ctrl.Admit();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(ctrl.stats().admitted, 3u);
}

TEST(AdmissionControllerTest, QueuedWriterProceedsWhenASlotFrees) {
  AdmissionOptions options;
  options.max_inflight_writers = 1;
  options.max_queued_writers = 4;
  AdmissionController ctrl(options);
  auto held = ctrl.Admit();
  ASSERT_TRUE(held.ok());

  Status queued_result = Status::Internal("never ran");
  std::thread queued([&] {
    auto slot = ctrl.Admit();  // parks: no deadline, no ambient context
    queued_result = slot.status();
  });
  // Wait until the writer is provably queued, then free the slot.
  while (ctrl.stats().queued == 0) std::this_thread::yield();
  { AdmissionController::Slot dropped = std::move(held).value(); }
  queued.join();
  ASSERT_OK(queued_result);
  EXPECT_EQ(ctrl.stats().admitted, 2u);
  EXPECT_EQ(ctrl.stats().queued, 0u);
}

TEST(AdmissionControllerTest, QueueDeadlineSheds) {
  AdmissionOptions options;
  options.max_inflight_writers = 1;
  options.max_queued_writers = 4;
  options.queue_deadline = std::chrono::duration_cast<
      std::chrono::microseconds>(milliseconds(20));
  AdmissionController ctrl(options);
  auto held = ctrl.Admit();
  ASSERT_TRUE(held.ok());

  auto shed = ctrl.Admit();
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);
  EXPECT_NE(shed.status().message().find("queue deadline"),
            std::string::npos)
      << shed.status();
  EXPECT_EQ(ctrl.stats().shed_queue_deadline, 1u);
  EXPECT_EQ(ctrl.stats().queued, 0u);
}

TEST(AdmissionControllerTest, RetryHintEscalatesWhileSaturatedAndResets) {
  AdmissionOptions options;
  options.max_inflight_writers = 1;
  options.max_queued_writers = 0;
  options.retry_hint =
      RetryPolicy{milliseconds(10), milliseconds(1000), 2.0, 0.0, 0};
  AdmissionController ctrl(options);
  auto held = ctrl.Admit();
  ASSERT_TRUE(held.ok());

  const int64_t first = RetryAfterMs(ctrl.Admit().status());
  const int64_t second = RetryAfterMs(ctrl.Admit().status());
  const int64_t third = RetryAfterMs(ctrl.Admit().status());
  EXPECT_EQ(first, 10);
  EXPECT_GT(second, first) << "consecutive sheds must escalate the hint";
  EXPECT_GT(third, second);

  { AdmissionController::Slot dropped = std::move(held).value(); }
  auto ok_again = ctrl.Admit();
  ASSERT_TRUE(ok_again.ok());
  { AdmissionController::Slot dropped = std::move(ok_again).value(); }
  auto reheld = ctrl.Admit();
  ASSERT_TRUE(reheld.ok());
  EXPECT_EQ(RetryAfterMs(ctrl.Admit().status()), 10)
      << "a successful admission resets the escalation";
}

TEST(AdmissionControllerTest, AmbientKillShedsAQueuedWriter) {
  AdmissionOptions options;
  options.max_inflight_writers = 1;
  options.max_queued_writers = 4;  // no queue deadline: only the kill
  AdmissionController ctrl(options);
  auto held = ctrl.Admit();
  ASSERT_TRUE(held.ok());

  auto kill = std::make_shared<CancelToken>();
  Status queued_result = Status::OK();
  std::thread queued([&] {
    CancelContext ctx;
    ctx.AddToken(kill, "session");
    CancelScope scope(&ctx);
    queued_result = ctrl.Admit().status();
  });
  while (ctrl.stats().queued == 0) std::this_thread::yield();
  kill->Cancel("kill while queued");
  queued.join();
  EXPECT_EQ(queued_result.code(), StatusCode::kCancelled) << queued_result;
  EXPECT_EQ(ctrl.stats().shed_cancelled, 1u);
  EXPECT_EQ(ctrl.stats().queued, 0u);
}

TEST(AdmissionControllerTest, FailpointInjectsAnAdmissionShed) {
  FailpointRegistry::Instance().DisarmAll();
  AdmissionController ctrl;
  FailpointRegistry::Instance().Arm(
      "server.admit.queue", {FailpointRegistry::Mode::kOnce, 1,
                             StatusCode::kOverloaded, false});
  EXPECT_EQ(ctrl.Admit().status().code(), StatusCode::kOverloaded);
  EXPECT_TRUE(ctrl.Admit().ok());
  EXPECT_EQ(ctrl.stats().admitted, 1u)
      << "an injected shed must not consume a slot";
  FailpointRegistry::Instance().DisarmAll();
}

// --- SessionManager overload surfaces ------------------------------------

TEST(SessionManagerOverloadTest, SessionLimitRefusalIsStructured) {
  FailpointRegistry::Instance().DisarmAll();
  SessionManager manager(std::make_unique<Engine>());
  manager.set_max_sessions(2);
  ASSERT_TRUE(manager.CreateSession().ok());
  ASSERT_TRUE(manager.CreateSession().ok());

  auto refused = manager.CreateSession();
  ASSERT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // Structured: current/max counts plus the retry-after hint.
  EXPECT_NE(refused.status().message().find("2/2"), std::string::npos)
      << refused.status();
  const int64_t first = RetryAfterMs(refused.status());
  EXPECT_GE(first, 0) << refused.status();
  const int64_t second = RetryAfterMs(manager.CreateSession().status());
  EXPECT_GT(second, first) << "the hint escalates while saturated";

  // Freeing a slot resets the escalation and admits again.
  const auto snap = manager.Inspect();
  ASSERT_EQ(snap.sessions.size(), 2u);
  ASSERT_OK(manager.CloseSession(snap.sessions[0].id));
  auto again = manager.CreateSession();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(RetryAfterMs(manager.CreateSession().status()), 10);
}

TEST(SessionManagerOverloadTest, InspectReportsPerSessionCounters) {
  FailpointRegistry::Instance().DisarmAll();
  SessionManager manager(std::make_unique<Engine>());
  auto a = manager.CreateSession();
  auto b = manager.CreateSession();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_OK(a.value()->Execute("create table t (v int)"));
  ASSERT_OK(a.value()->Execute("insert into t values (1)"));
  EXPECT_TRUE(b.value()->Query("select * from t").ok());
  b.value()->Cancel("inspect should see this");

  const auto snap = manager.Inspect();
  EXPECT_EQ(snap.num_sessions, 2u);
  EXPECT_EQ(snap.max_sessions, manager.max_sessions());
  ASSERT_EQ(snap.sessions.size(), 2u);
  for (const auto& info : snap.sessions) {
    if (info.id == a.value()->id()) {
      // DDL routes around StatementScope counting? No: Execute counts
      // every statement it admits, DDL included.
      EXPECT_GE(info.statements, 2u);
      EXPECT_GE(info.commits, 1u);
      EXPECT_FALSE(info.killed);
    } else {
      EXPECT_EQ(info.id, b.value()->id());
      EXPECT_EQ(info.statements, 1u);
      EXPECT_TRUE(info.killed);
    }
    EXPECT_EQ(info.inflight_statements, 0u);
  }
  EXPECT_EQ(snap.admission.inflight, 0u);
  EXPECT_GE(snap.admission.admitted, 1u);
}

}  // namespace
}  // namespace server
}  // namespace sopr
