// Unit tests for the cooperative-cancellation primitives
// (common/cancel.h) and their interaction with common/retry.h's Backoff
// (docs/OVERLOAD.md): tokens, deadlines, composed contexts with
// attribution, the thread-ambient scope stack, cancellable sleeps, and
// the guarantee that a backoff sleep can never outsleep the ambient
// deadline.

#include "common/cancel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/failpoint.h"
#include "common/retry.h"

namespace sopr {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

TEST(CancelTokenTest, FirstReasonWinsAndSticks) {
  auto token = std::make_shared<CancelToken>();
  EXPECT_FALSE(token->cancelled());
  EXPECT_EQ(token->reason(), "");
  token->Cancel("operator kill");
  EXPECT_TRUE(token->cancelled());
  EXPECT_EQ(token->reason(), "operator kill");
  token->Cancel("late second kill");
  EXPECT_EQ(token->reason(), "operator kill") << "first Cancel's reason wins";
}

TEST(DeadlineTest, NeverNeverExpiresAndEarlierPicksTheRealOne) {
  Deadline never = Deadline::Never();
  EXPECT_FALSE(never.has_deadline());
  EXPECT_FALSE(never.Expired());
  EXPECT_EQ(never.Remaining(), microseconds::max());

  Deadline past = Deadline::After(microseconds(-1));
  EXPECT_TRUE(past.has_deadline());
  EXPECT_TRUE(past.Expired());
  EXPECT_EQ(past.Remaining(), microseconds(0));

  Deadline future = Deadline::After(std::chrono::hours(1));
  EXPECT_FALSE(future.Expired());
  EXPECT_GT(future.Remaining(), microseconds(0));

  EXPECT_EQ(Deadline::Earlier(never, future).at(), future.at());
  EXPECT_EQ(Deadline::Earlier(future, never).at(), future.at());
  EXPECT_EQ(Deadline::Earlier(past, future).at(), past.at());
  EXPECT_FALSE(Deadline::Earlier(never, never).has_deadline());
}

TEST(CancelContextTest, AttributionKillBeatsDeadline) {
  // A fired token and an expired deadline in the same context: the kill
  // attributes the failure (kCancelled), because the explicit operator
  // action is the more specific cause.
  auto token = std::make_shared<CancelToken>();
  token->Cancel("kill");
  CancelContext ctx;
  ctx.AddToken(token, "session 7");
  ctx.AddDeadline(Deadline::After(microseconds(-1)), "statement");
  Status st = ctx.Check("test site");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("session 7"), std::string::npos) << st;
}

TEST(CancelContextTest, ExpiredDeadlineIsTimeoutWithLabel) {
  CancelContext ctx;
  ctx.AddToken(std::make_shared<CancelToken>(), "session 7");  // not fired
  ctx.AddDeadline(Deadline::Never(), "transaction");
  ctx.AddDeadline(Deadline::After(microseconds(-1)), "statement");
  Status st = ctx.Check("test site");
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_NE(st.message().find("statement"), std::string::npos) << st;
}

TEST(CancelContextTest, CompositeDeadlineIsTheEarliest) {
  CancelContext ctx;
  EXPECT_FALSE(ctx.deadline().has_deadline());
  Deadline txn = Deadline::After(std::chrono::hours(2));
  Deadline stmt = Deadline::After(std::chrono::hours(1));
  ctx.AddDeadline(txn, "transaction");
  ctx.AddDeadline(stmt, "statement");
  ASSERT_TRUE(ctx.deadline().has_deadline());
  EXPECT_EQ(ctx.deadline().at(), stmt.at());
}

TEST(CancelScopeTest, ScopesNestAndRestore) {
  EXPECT_EQ(CancelScope::Current(), nullptr);
  CancelContext outer;
  {
    CancelScope outer_scope(&outer);
    EXPECT_EQ(CancelScope::Current(), &outer);
    CancelContext inner = CancelContext::InheritAmbient();
    {
      CancelScope inner_scope(&inner);
      EXPECT_EQ(CancelScope::Current(), &inner);
      {
        // The shield: a nullptr scope makes the section uncancellable
        // (the rule engine's commit section uses this).
        CancelScope shield(nullptr);
        EXPECT_EQ(CancelScope::Current(), nullptr);
        EXPECT_TRUE(CheckCancel("shielded").ok());
      }
      EXPECT_EQ(CancelScope::Current(), &inner);
    }
    EXPECT_EQ(CancelScope::Current(), &outer);
  }
  EXPECT_EQ(CancelScope::Current(), nullptr);
}

TEST(CancelScopeTest, InheritAmbientComposesSources) {
  auto kill = std::make_shared<CancelToken>();
  CancelContext session;
  session.AddToken(kill, "session");
  CancelScope session_scope(&session);

  // A transaction layer inherits the session's kill and adds its own
  // deadline — the composed context fails for EITHER reason.
  CancelContext txn = CancelContext::InheritAmbient();
  txn.AddDeadline(Deadline::After(std::chrono::hours(1)), "transaction");
  CancelScope txn_scope(&txn);

  EXPECT_TRUE(CheckCancel("before kill").ok());
  kill->Cancel("kill through the inherited token");
  Status st = CheckCancel("after kill");
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
}

TEST(CheckCancelTest, NoContextIsOkAndFailpointInjects) {
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_TRUE(CheckCancel("nowhere").ok());
  // cancel.deliver models an asynchronous kill arriving at any check
  // site, even with no ambient context installed.
  FailpointRegistry::Instance().Arm(
      "cancel.deliver", {FailpointRegistry::Mode::kOnce, 1,
                         StatusCode::kCancelled, false});
  EXPECT_EQ(CheckCancel("anywhere").code(), StatusCode::kCancelled);
  EXPECT_TRUE(CheckCancel("anywhere").ok()) << "kOnce fires exactly once";
  FailpointRegistry::Instance().DisarmAll();
}

TEST(CancellableSleepTest, FullSleepWithoutContext) {
  const auto t0 = CancelClock::now();
  EXPECT_TRUE(CancellableSleep(milliseconds(5), "test").ok());
  EXPECT_GE(CancelClock::now() - t0, milliseconds(5));
}

TEST(CancellableSleepTest, PreCancelledTokenReturnsImmediately) {
  auto kill = std::make_shared<CancelToken>();
  kill->Cancel("already dead");
  CancelContext ctx;
  ctx.AddToken(kill, "session");
  CancelScope scope(&ctx);
  const auto t0 = CancelClock::now();
  Status st = CancellableSleep(std::chrono::seconds(30), "test");
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  EXPECT_LT(CancelClock::now() - t0, std::chrono::seconds(5));
}

TEST(CancellableSleepTest, AsynchronousKillCutsTheSleepShort) {
  auto kill = std::make_shared<CancelToken>();
  CancelContext ctx;
  ctx.AddToken(kill, "session");
  CancelScope scope(&ctx);
  std::thread killer([kill] {
    std::this_thread::sleep_for(milliseconds(20));
    kill->Cancel("mid-sleep kill");
  });
  const auto t0 = CancelClock::now();
  Status st = CancellableSleep(std::chrono::seconds(30), "test");
  killer.join();
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  // Poll-quantum delivery: far sooner than the nominal 30s (generous
  // bound for loaded CI machines).
  EXPECT_LT(CancelClock::now() - t0, std::chrono::seconds(10));
}

TEST(CancellableSleepTest, ClippedToTheAmbientDeadline) {
  CancelContext ctx;
  ctx.AddDeadline(Deadline::After(milliseconds(10)), "statement");
  CancelScope scope(&ctx);
  const auto t0 = CancelClock::now();
  Status st = CancellableSleep(std::chrono::seconds(30), "test");
  EXPECT_EQ(st.code(), StatusCode::kTimeout) << st;
  EXPECT_LT(CancelClock::now() - t0, std::chrono::seconds(10));
}

// --- The Backoff x deadline interaction (common/retry.h) -----------------

TEST(BackoffSleepTest, SleepHonoursTheFullDelayWithoutContext) {
  RetryPolicy policy;
  policy.initial_delay = milliseconds(5);
  policy.max_delay = milliseconds(5);
  policy.jitter = 0.0;
  Backoff backoff(policy);
  const auto t0 = CancelClock::now();
  EXPECT_TRUE(backoff.Sleep("test").ok());
  EXPECT_GE(CancelClock::now() - t0, milliseconds(5));
  EXPECT_EQ(backoff.attempts(), 1u);
}

TEST(BackoffSleepTest, SleepNeverOutsleepsTheAmbientDeadline) {
  // A detached-rule retry whose nominal backoff delay (30s) dwarfs the
  // transaction budget (15ms): the sleep must end at the budget, with
  // kTimeout, not after the nominal delay.
  RetryPolicy policy;
  policy.initial_delay = std::chrono::seconds(30);
  policy.max_delay = std::chrono::seconds(30);
  policy.jitter = 0.0;
  Backoff backoff(policy);
  CancelContext ctx;
  ctx.AddDeadline(Deadline::After(milliseconds(15)), "transaction");
  CancelScope scope(&ctx);
  const auto t0 = CancelClock::now();
  Status st = backoff.Sleep("detached retry");
  EXPECT_EQ(st.code(), StatusCode::kTimeout) << st;
  EXPECT_LT(CancelClock::now() - t0, std::chrono::seconds(10))
      << "the sleep must be clipped to the deadline, not the nominal delay";
}

TEST(BackoffSleepTest, KillCutsARetrySleepShort) {
  RetryPolicy policy;
  policy.initial_delay = std::chrono::seconds(30);
  policy.max_delay = std::chrono::seconds(30);
  policy.jitter = 0.0;
  Backoff backoff(policy);
  auto kill = std::make_shared<CancelToken>();
  CancelContext ctx;
  ctx.AddToken(kill, "session");
  CancelScope scope(&ctx);
  std::thread killer([kill] {
    std::this_thread::sleep_for(milliseconds(20));
    kill->Cancel("kill during backoff");
  });
  Status st = backoff.Sleep("detached retry");
  killer.join();
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
}

}  // namespace
}  // namespace sopr
