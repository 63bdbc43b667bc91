#include "src/sim/executor.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/sim/crash.h"

namespace circus::sim {

uint64_t Executor::ScheduleAt(TimePoint when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  const uint64_t id =
      static_cast<uint64_t>(slots_[slot].generation) << 32 | slot;
  ++live_events_;
  const Event ev{when, next_seq_++, id};
  if (when == now_) {
    ready_.push_back(ev);
  } else {
    timers_.push_back(ev);
    std::push_heap(timers_.begin(), timers_.end(), EventLater{});
  }
  return id;
}

void Executor::Retire(Slot& slot) {
  // Generation 0 is skipped on wraparound so that no id is ever 0.
  if (++slot.generation == 0) {
    slot.generation = 1;
  }
  --live_events_;
}

void Executor::Cancel(uint64_t id) {
  if (SlotOf(id) >= slots_.size()) {
    return;
  }
  Slot& slot = slots_[SlotOf(id)];
  if (slot.generation != GenerationOf(id)) {
    return;
  }
  Retire(slot);
  slot.fn = nullptr;
}

const Executor::Event* Executor::Head() {
  while (ready_head_ < ready_.size() && !Live(ready_[ready_head_])) {
    Pop(&ready_[ready_head_]);
  }
  while (!timers_.empty() && !Live(timers_.front())) {
    Pop(&timers_.front());
  }
  const Event* ready =
      ready_head_ < ready_.size() ? &ready_[ready_head_] : nullptr;
  const Event* timer = timers_.empty() ? nullptr : &timers_.front();
  if (ready == nullptr) {
    return timer;
  }
  if (timer == nullptr) {
    return ready;
  }
  return EventLater{}(*ready, *timer) ? timer : ready;
}

void Executor::Pop(const Event* head) {
  free_slots_.push_back(SlotOf(head->id));
  if (ready_head_ < ready_.size() && head == &ready_[ready_head_]) {
    if (++ready_head_ == ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
    }
    return;
  }
  std::pop_heap(timers_.begin(), timers_.end(), EventLater{});
  timers_.pop_back();
}

void Executor::Run(const Event* head) {
  const TimePoint when = head->when;
  Slot& slot = slots_[SlotOf(head->id)];
  // Move the callback out first: it may schedule, which can reallocate
  // slots_ and the queues.
  std::function<void()> fn = std::move(slot.fn);
  slot.fn = nullptr;
  Retire(slot);
  Pop(head);
  CIRCUS_CHECK(when >= now_);
  now_ = when;
  ++events_run_;
  fn();
}

bool Executor::RunOne() {
  const Event* head = Head();
  if (head == nullptr) {
    return false;
  }
  Run(head);
  return true;
}

std::optional<TimePoint> Executor::NextEventTime() {
  const Event* head = Head();
  if (head == nullptr) {
    return std::nullopt;
  }
  return head->when;
}

void Executor::RunUntilIdle() {
  while (RunOne()) {
  }
}

void Executor::RunUntil(TimePoint deadline) {
  for (const Event* head = Head(); head != nullptr && head->when <= deadline;
       head = Head()) {
    Run(head);
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

namespace {

// Fire-and-forget wrapper coroutine: owns the Task frame for the duration
// of the run and self-destroys at completion.
struct DetachedTask {
  struct promise_type {
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

DetachedTask RunDetached(Task<void> task, int64_t* live_counter) {
  ++*live_counter;
  try {
    co_await std::move(task);
  } catch (const HostCrashedError&) {
    // The host running this task failed; the task simply ceases to exist,
    // like a process on a crashed machine.
  }
  --*live_counter;
}

}  // namespace

void Executor::Spawn(Task<void> task) {
  RunDetached(std::move(task), &live_detached_);
}

}  // namespace circus::sim
