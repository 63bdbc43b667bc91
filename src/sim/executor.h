// The discrete-event executor: a virtual clock plus a time-ordered queue
// of callbacks. All coroutine resumptions are scheduled through it, so the
// entire simulation executes as a flat, deterministic event loop.
//
// Events live in two queues ordered by (when, seq), seq being the
// scheduling order. Most events are zero-delay coroutine resumes, due at
// now(); those go to a FIFO, which is already in (when, seq) order
// because the clock never runs backwards. Future events go to a binary
// heap, which on the rt runtime holds every long retention timer. The
// next event is the earlier of the two queue heads, so events run in
// exactly the order one merged queue would give them. Callbacks live in
// a slot vector indexed by event id; no event costs a hash lookup.
#ifndef SRC_SIM_EXECUTOR_H_
#define SRC_SIM_EXECUTOR_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/sim/task.h"
#include "src/sim/time.h"

namespace circus::sim {

class Executor {
 public:
  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `fn` to run at simulated time `when` (clamped to now()).
  // Events at equal times run in scheduling order. Returns a nonzero id
  // usable with Cancel().
  uint64_t ScheduleAt(TimePoint when, std::function<void()> fn);
  uint64_t ScheduleAfter(Duration delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a scheduled event and releases its callback at once. A no-op
  // if the event already ran or was cancelled, even after its slot has
  // been reused: an id is `generation << 32 | slot`, and the slot's
  // generation moves on when its event runs or is cancelled. The
  // cancelled event's queue entry stays behind and is discarded when it
  // reaches the head of its queue.
  void Cancel(uint64_t id);

  // Runs the earliest pending event; returns false if none remain.
  bool RunOne();
  // Runs until the queue is empty.
  void RunUntilIdle();
  // Runs events with time <= deadline; the clock finishes at `deadline`
  // even if the queue drains earlier.
  void RunUntil(TimePoint deadline);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Scheduled events that have neither run nor been cancelled.
  size_t pending_events() const { return live_events_; }

  // Total events dispatched by RunOne — with pending_events(), the
  // run-queue side of the utilization telemetry (src/obs/util.h).
  uint64_t events_run() const { return events_run_; }

  // Time of the earliest pending (non-cancelled) event, or nullopt when
  // the queue is empty. Used by the real-time runtime to bound its
  // epoll wait: the wall-clock IoLoop sleeps exactly until the next
  // virtual deadline.
  std::optional<TimePoint> NextEventTime();

  // Starts a detached coroutine. The coroutine begins running immediately
  // (until its first suspension). A HostCrashedError escaping the task is
  // swallowed: it means the host running the task failed, which is an
  // expected event in a fault-tolerance simulator. Any other exception
  // escaping a detached task aborts the process (programmer error).
  void Spawn(Task<void> task);

  // Number of detached tasks spawned and still running; useful for
  // detecting tests that leave orphaned protocol loops behind.
  int64_t live_detached_tasks() const { return live_detached_; }

  // Awaitable god-level sleep (not tied to any host; never "crashes").
  // Protocol code must use Host::SleepFor instead so that crashes wake it.
  auto SleepFor(Duration d) {
    struct Awaiter {
      Executor* executor;
      Duration delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        executor->ScheduleAfter(delay, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

 private:
  struct Event {
    TimePoint when;
    uint64_t seq;
    uint64_t id;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };
  // A callback's home. `generation` is the high half of the id of the
  // event currently using the slot; it changes when that event runs or is
  // cancelled, so a queue entry whose id no longer matches is dead.
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 1;
  };

  static uint32_t SlotOf(uint64_t id) { return static_cast<uint32_t>(id); }
  static uint32_t GenerationOf(uint64_t id) {
    return static_cast<uint32_t>(id >> 32);
  }
  bool Live(const Event& ev) const {
    return slots_[SlotOf(ev.id)].generation == GenerationOf(ev.id);
  }
  // Retires the slot's current id so that Cancel and Live see it as gone.
  void Retire(Slot& slot);
  // Discards dead entries at both queue heads, then returns the earliest
  // live event, or null when none remain. The pointer is valid until the
  // next schedule or pop.
  const Event* Head();
  // Removes the event Head() returned from its queue and frees its slot.
  void Pop(const Event* head);
  // Pops the live event Head() returned and runs it.
  void Run(const Event* head);

  TimePoint now_;
  uint64_t next_seq_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  // Events due at their scheduling instant, in (when, seq) order; the
  // live part starts at ready_head_.
  std::vector<Event> ready_;
  size_t ready_head_ = 0;
  // Future events: a min-heap under EventLater.
  std::vector<Event> timers_;
  size_t live_events_ = 0;
  int64_t live_detached_ = 0;
  uint64_t events_run_ = 0;
};

}  // namespace circus::sim

#endif  // SRC_SIM_EXECUTOR_H_
