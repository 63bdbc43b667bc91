#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sim/channel.h"
#include "src/sim/crash.h"
#include "src/sim/executor.h"
#include "src/sim/host.h"
#include "src/sim/notification.h"
#include "src/sim/random.h"
#include "src/sim/syscall.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "tests/test_util.h"

namespace circus::sim {
namespace {

using circus::testing::RunTask;

// ---------------------------------------------------------------- Time --

TEST(TimeTest, DurationArithmetic) {
  Duration a = Duration::Millis(5);
  Duration b = Duration::Micros(500);
  EXPECT_EQ((a + b).nanos(), 5500000);
  EXPECT_EQ((a - b).nanos(), 4500000);
  EXPECT_EQ((a * 3).nanos(), 15000000);
  EXPECT_EQ((a / 5).nanos(), 1000000);
  EXPECT_LT(b, a);
  EXPECT_DOUBLE_EQ(a.ToMillisF(), 5.0);
}

TEST(TimeTest, FractionalMillis) {
  EXPECT_EQ(Duration::MillisF(8.1).nanos(), 8100000);
  EXPECT_EQ(Duration::MillisF(0.4).nanos(), 400000);
}

TEST(TimeTest, TimePointArithmetic) {
  TimePoint t0;
  TimePoint t1 = t0 + Duration::Seconds(2);
  EXPECT_EQ((t1 - t0).nanos(), 2000000000);
  EXPECT_GT(t1, t0);
  EXPECT_EQ((t1 - Duration::Seconds(2)), t0);
}

TEST(TimeTest, ToString) {
  EXPECT_EQ(Duration::Millis(12).ToString(), "12ms");
  EXPECT_EQ(Duration::MillisF(8.1).ToString(), "8.100ms");
}

// ------------------------------------------------------------ Executor --

TEST(ExecutorTest, RunsEventsInTimeOrder) {
  Executor ex;
  std::vector<int> order;
  ex.ScheduleAfter(Duration::Millis(20), [&] { order.push_back(2); });
  ex.ScheduleAfter(Duration::Millis(10), [&] { order.push_back(1); });
  ex.ScheduleAfter(Duration::Millis(30), [&] { order.push_back(3); });
  ex.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(30).nanos());
}

TEST(ExecutorTest, EqualTimesRunInSchedulingOrder) {
  Executor ex;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ex.ScheduleAfter(Duration::Millis(1), [&order, i] {
      order.push_back(i);
    });
  }
  ex.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ExecutorTest, CancelPreventsExecution) {
  Executor ex;
  bool ran = false;
  const uint64_t id =
      ex.ScheduleAfter(Duration::Millis(1), [&] { ran = true; });
  ex.Cancel(id);
  ex.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(ExecutorTest, RunUntilAdvancesClockToDeadline) {
  Executor ex;
  bool ran = false;
  ex.ScheduleAfter(Duration::Millis(100), [&] { ran = true; });
  ex.RunUntil(TimePoint() + Duration::Millis(50));
  EXPECT_FALSE(ran);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(50).nanos());
  ex.RunUntil(TimePoint() + Duration::Millis(200));
  EXPECT_TRUE(ran);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(200).nanos());
}

TEST(ExecutorTest, NestedSchedulingFromCallback) {
  Executor ex;
  int hits = 0;
  ex.ScheduleAfter(Duration::Millis(1), [&] {
    ++hits;
    ex.ScheduleAfter(Duration::Millis(1), [&] { ++hits; });
  });
  ex.RunUntilIdle();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(2).nanos());
}

// Zero-delay events go to the ready FIFO and future events to the timer
// heap; at one instant they must still interleave in scheduling order,
// including events scheduled from callbacks at that instant.
TEST(ExecutorTest, ReadyAndTimerEventsAtOneInstantRunInSchedulingOrder) {
  Executor ex;
  std::vector<std::string> order;
  const TimePoint t = TimePoint() + Duration::Millis(10);
  ex.ScheduleAt(t, [&] {
    order.push_back("a");
    ex.ScheduleAfter(Duration::Zero(), [&] { order.push_back("c"); });
    ex.ScheduleAt(t, [&] {
      order.push_back("d");
      ex.ScheduleAfter(Duration::Zero(), [&] { order.push_back("f"); });
    });
  });
  ex.ScheduleAt(t, [&] {
    order.push_back("b");
    // In the past: clamped to now() and queued behind c and d.
    ex.ScheduleAt(TimePoint(), [&] { order.push_back("e"); });
  });
  ex.ScheduleAfter(Duration::Zero(), [&] { order.push_back("z"); });
  ex.RunUntilIdle();
  EXPECT_EQ(order,
            (std::vector<std::string>{"z", "a", "b", "c", "d", "e", "f"}));
  EXPECT_EQ(ex.now(), t);
}

TEST(ExecutorTest, StaleCancelAfterSlotReuseIsNoOp) {
  Executor ex;
  int ran = 0;
  const uint64_t first = ex.ScheduleAfter(Duration::Millis(1), [] {});
  ex.RunUntilIdle();
  const uint64_t second =
      ex.ScheduleAfter(Duration::Millis(1), [&] { ++ran; });
  EXPECT_NE(first, second);
  ex.Cancel(first);  // already ran; its slot now belongs to `second`
  EXPECT_EQ(ex.pending_events(), 1u);
  ex.RunUntilIdle();
  EXPECT_EQ(ran, 1);

  // The same after a cancel: the cancelled id stays dead once its slot
  // is reused.
  const uint64_t cancelled = ex.ScheduleAfter(Duration::Millis(1), [] {});
  ex.Cancel(cancelled);
  ex.RunUntilIdle();
  ex.ScheduleAfter(Duration::Millis(1), [&] { ++ran; });
  ex.Cancel(cancelled);
  ex.RunUntilIdle();
  EXPECT_EQ(ran, 2);
}

TEST(ExecutorTest, CancelZeroDelayEventPreventsExecution) {
  Executor ex;
  bool ran = false;
  auto captured = std::make_shared<int>(0);
  std::weak_ptr<int> watch = captured;
  const uint64_t id = ex.ScheduleAfter(
      Duration::Zero(), [&ran, captured = std::move(captured)] { ran = true; });
  EXPECT_EQ(ex.pending_events(), 1u);
  ex.Cancel(id);
  EXPECT_EQ(ex.pending_events(), 0u);
  EXPECT_TRUE(watch.expired());  // the callback is released at once
  EXPECT_FALSE(ex.NextEventTime().has_value());
  ex.RunUntilIdle();
  EXPECT_FALSE(ran);
  EXPECT_EQ(ex.events_run(), 0u);
}

// ---------------------------------------------------------------- Task --

Task<int> Return42() { co_return 42; }

Task<int> AddNested() {
  const int a = co_await Return42();
  const int b = co_await Return42();
  co_return a + b;
}

TEST(TaskTest, ReturnsValue) {
  Executor ex;
  EXPECT_EQ(RunTask(ex, Return42()), 42);
}

TEST(TaskTest, NestedAwaits) {
  Executor ex;
  EXPECT_EQ(RunTask(ex, AddNested()), 84);
}

Task<int> Throws() {
  throw std::runtime_error("boom");
  co_return 0;  // unreachable
}

Task<int> CatchesNested() {
  try {
    co_await Throws();
  } catch (const std::runtime_error& e) {
    co_return 7;
  }
  co_return 0;
}

TEST(TaskTest, ExceptionsPropagateToAwaiter) {
  Executor ex;
  EXPECT_EQ(RunTask(ex, CatchesNested()), 7);
}

Task<int> SleepsViaExecutor(Executor* ex) {
  co_await ex->SleepFor(Duration::Millis(5));
  co_await ex->SleepFor(Duration::Millis(5));
  co_return static_cast<int>(ex->now().nanos() / 1000000);
}

TEST(TaskTest, ExecutorSleepAdvancesVirtualTime) {
  Executor ex;
  EXPECT_EQ(RunTask(ex, SleepsViaExecutor(&ex)), 10);
}

TEST(TaskTest, SpawnCountsLiveTasks) {
  Executor ex;
  ex.Spawn([](Executor* e) -> Task<void> {
    co_await e->SleepFor(Duration::Millis(1));
  }(&ex));
  EXPECT_EQ(ex.live_detached_tasks(), 1);
  ex.RunUntilIdle();
  EXPECT_EQ(ex.live_detached_tasks(), 0);
}

// ---------------------------------------------------------------- Host --

TEST(HostTest, SyscallChargesCpuAndAdvancesTime) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Berkeley42Bsd());
  RunTask(ex, [](Host* h) -> Task<void> {
    co_await h->DoSyscall(Syscall::kSendMsg);
    co_await h->DoSyscall(Syscall::kRecvMsg);
    co_await h->Compute(Duration::MillisF(1.5));
  }(&host));
  EXPECT_EQ(host.cpu().count(Syscall::kSendMsg), 1u);
  EXPECT_EQ(host.cpu().count(Syscall::kRecvMsg), 1u);
  EXPECT_EQ(host.cpu().kernel_time().nanos(),
            Duration::MillisF(8.1 + 2.8).nanos());
  EXPECT_EQ(host.cpu().user_time.nanos(), Duration::MillisF(1.5).nanos());
  // Real time advanced by the CPU consumed.
  EXPECT_EQ(ex.now().nanos(), Duration::MillisF(12.4).nanos());
}

TEST(HostTest, CrashWakesSleeperWithHostCrashedError) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  bool crashed_seen = false;
  bool completed = false;
  ex.Spawn([](Host* h, bool* crashed, bool* done) -> Task<void> {
    try {
      co_await h->SleepFor(Duration::Seconds(10));
      *done = true;
    } catch (const HostCrashedError&) {
      *crashed = true;
    }
  }(&host, &crashed_seen, &completed));
  ex.ScheduleAfter(Duration::Millis(5), [&] { host.Crash(); });
  ex.RunUntilIdle();
  EXPECT_TRUE(crashed_seen);
  EXPECT_FALSE(completed);
  EXPECT_FALSE(host.up());
}

TEST(HostTest, CrashReapsDetachedTaskSilently) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  ex.Spawn([](Host* h) -> Task<void> {
    co_await h->SleepFor(Duration::Seconds(100));
  }(&host));
  ex.ScheduleAfter(Duration::Millis(1), [&] { host.Crash(); });
  ex.RunUntilIdle();
  EXPECT_EQ(ex.live_detached_tasks(), 0);
}

TEST(HostTest, WaitingOnDownHostThrowsImmediately) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  host.Crash();
  bool threw = false;
  ex.Spawn([](Host* h, bool* out) -> Task<void> {
    try {
      co_await h->SleepFor(Duration::Millis(1));
    } catch (const HostCrashedError&) {
      *out = true;
    }
  }(&host, &threw));
  ex.RunUntilIdle();
  EXPECT_TRUE(threw);
}

TEST(HostTest, RestartBumpsIncarnation) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  EXPECT_EQ(host.incarnation(), 1u);
  host.Crash();
  host.Restart();
  EXPECT_TRUE(host.up());
  EXPECT_EQ(host.incarnation(), 2u);
}

TEST(HostTest, CrashListenersFireOnce) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  int fires = 0;
  host.AddCrashListener([&] { ++fires; });
  host.Crash();
  host.Crash();  // idempotent
  EXPECT_EQ(fires, 1);
  host.Restart();
  host.Crash();  // listener was consumed
  EXPECT_EQ(fires, 1);
}

TEST(HostTest, ClockSkewShiftsLocalClock) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  host.set_clock_skew(Duration::Millis(7));
  ex.ScheduleAfter(Duration::Millis(10), [] {});
  ex.RunUntilIdle();
  EXPECT_EQ(host.LocalClockNanos(), Duration::Millis(17).nanos());
  // Round trip: the sim time at which the local clock reads a value.
  EXPECT_EQ(host.SimTimeForLocal(Duration::Millis(17).nanos()).nanos(),
            Duration::Millis(10).nanos());
}

TEST(HostTest, ConcurrentCpuChargesSerialize) {
  // Two tasks each burning 5 ms of CPU on one host take 10 ms of real
  // time: a machine has one processor (Section 4.4.1's linearity).
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  int finished = 0;
  for (int i = 0; i < 2; ++i) {
    ex.Spawn([](Host* h, int* done) -> Task<void> {
      co_await h->Compute(Duration::Millis(5));
      ++*done;
    }(&host, &finished));
  }
  ex.RunUntilIdle();
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(10).nanos());
}

TEST(HostTest, SleepCompletesNormallyWhenNoCrash) {
  Executor ex;
  Host host(&ex, 1, "vax1", SyscallCostModel::Free());
  RunTask(ex, [](Host* h) -> Task<void> {
    co_await h->SleepFor(Duration::Millis(7));
  }(&host));
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(7).nanos());
}

// ------------------------------------------------------------- Channel --

TEST(ChannelTest, SendThenReceive) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  ch.Send(1);
  ch.Send(2);
  const int a = RunTask(ex, ReceiveValue(ch));
  const int b = RunTask(ex, ReceiveValue(ch));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(ChannelTest, ReceiveBlocksUntilSend) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  int got = 0;
  ex.Spawn([](Channel<int>* c, int* out) -> Task<void> {
    *out = co_await ReceiveValue(*c);
  }(&ch, &got));
  ex.RunUntilIdle();
  EXPECT_EQ(got, 0);
  ex.ScheduleAfter(Duration::Millis(3), [&] { ch.Send(99); });
  ex.RunUntilIdle();
  EXPECT_EQ(got, 99);
}

TEST(ChannelTest, MultipleWaitersWakeFifo) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    ex.Spawn([](Channel<int>* c, std::vector<int>* out) -> Task<void> {
      out->push_back(co_await ReceiveValue(*c));
    }(&ch, &got));
  }
  ex.RunUntilIdle();
  ch.Send(10);
  ch.Send(20);
  ch.Send(30);
  ex.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(ChannelTest, TimeoutReturnsNullopt) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  bool timed_out = false;
  ex.Spawn([](Channel<int>* c, bool* out) -> Task<void> {
    std::optional<int> v =
        co_await c->ReceiveWithTimeout(Duration::Millis(5));
    *out = !v.has_value();
  }(&ch, &timed_out));
  ex.RunUntilIdle();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(ex.now().nanos(), Duration::Millis(5).nanos());
}

TEST(ChannelTest, ValueBeatsTimeout) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  std::optional<int> got;
  ex.Spawn([](Channel<int>* c, std::optional<int>* out) -> Task<void> {
    *out = co_await c->ReceiveWithTimeout(Duration::Millis(50));
  }(&ch, &got));
  ex.ScheduleAfter(Duration::Millis(1), [&] { ch.Send(5); });
  ex.RunUntil(TimePoint() + Duration::Millis(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 5);
  // The value settled the wait, so its timeout was cancelled: nothing is
  // left to run, and the clock stays at the send instant.
  EXPECT_EQ(ex.pending_events(), 0u);
  ex.RunUntilIdle();
  EXPECT_EQ(ex.now(), TimePoint() + Duration::Millis(1));
}

TEST(ChannelTest, CrashWakesReceiver) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  bool crashed = false;
  ex.Spawn([](Channel<int>* c, bool* out) -> Task<void> {
    try {
      co_await c->Receive();
    } catch (const HostCrashedError&) {
      *out = true;
    }
  }(&ch, &crashed));
  ex.ScheduleAfter(Duration::Millis(1), [&] { host.Crash(); });
  ex.RunUntilIdle();
  EXPECT_TRUE(crashed);
}

TEST(ChannelTest, TryReceiveDoesNotBlock) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Channel<int> ch(&host);
  EXPECT_FALSE(ch.TryReceive().has_value());
  ch.Send(1);
  std::optional<int> v = ch.TryReceive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
}

// -------------------------------------------------------- Notification --

TEST(NotificationTest, NotifyWakesAllWaiters) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Notification n(&host);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    ex.Spawn([](Notification* note, int* out) -> Task<void> {
      co_await note->Wait();
      ++*out;
    }(&n, &woken));
  }
  ex.RunUntilIdle();
  EXPECT_EQ(woken, 0);
  n.Notify();
  ex.RunUntilIdle();
  EXPECT_EQ(woken, 3);
}

TEST(NotificationTest, WaitAfterNotifyReturnsImmediately) {
  Executor ex;
  Host host(&ex, 1, "h", SyscallCostModel::Free());
  Notification n(&host);
  n.Notify();
  RunTask(ex, [](Notification* note) -> Task<void> {
    co_await note->Wait();
  }(&n));
}

// ------------------------------------------------------------- Random --

TEST(RandomTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, ForkedStreamsDiffer) {
  Rng root(7);
  Rng a = root.Fork();
  Rng b = root.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RandomTest, ExponentialHasApproximatelyRightMean) {
  Rng rng(42);
  const Duration mean = Duration::Millis(10);
  double sum_ms = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    sum_ms += rng.Exponential(mean).ToMillisF();
  }
  EXPECT_NEAR(sum_ms / kDraws, 10.0, 0.3);
}

TEST(RandomTest, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RandomTest, UniformIntInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

}  // namespace
}  // namespace circus::sim
