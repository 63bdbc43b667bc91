// The per-World event bus. Protocol layers publish typed obs::Events;
// subscribers (trace collectors, invariant monitors, recorder taps)
// receive them synchronously, in publish order — which, inside the
// deterministic simulation, is itself deterministic per seed.
//
// Publishing is designed to be near-free when nobody is listening:
// publishers check `active()` before even constructing an Event, so an
// un-observed run pays one branch per would-be event.
#ifndef SRC_OBS_BUS_H_
#define SRC_OBS_BUS_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/obs/event.h"

namespace circus::obs {

class EventBus {
 public:
  using Subscriber = std::function<void(const Event&)>;
  using SubscriberId = uint64_t;

  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  // True when at least one subscriber is attached. Publishers gate event
  // construction on this so tracing costs nothing when disabled.
  bool active() const { return !subscribers_.empty(); }

  // The clock used to stamp events whose time_ns is unset — the seam
  // that makes the bus runtime-agnostic. The World installs its
  // executor's simulated clock here; rt::Runtime installs its
  // CLOCK_REALTIME-seeded wall clock. Without one, events keep whatever
  // timestamp the publisher set.
  void SetClock(std::function<int64_t()> now_ns) {
    clock_ = std::move(now_ns);
  }

  // Stamps every published event with this process incarnation (0, the
  // default, leaves events unstamped — the simulated World's mode).
  void SetIncarnation(uint64_t incarnation) { incarnation_ = incarnation; }
  uint64_t incarnation() const { return incarnation_; }

  SubscriberId Subscribe(Subscriber fn);
  void Unsubscribe(SubscriberId id);

  // Fans `event` out to every subscriber, stamping the simulated time
  // first if the publisher left it unset. Synchronous: subscribers run
  // inside the publisher's call, so they must not re-enter the protocol.
  void Publish(Event event);

  uint64_t published() const { return published_; }

 private:
  std::vector<std::pair<SubscriberId, Subscriber>> subscribers_;
  std::function<int64_t()> clock_;
  uint64_t incarnation_ = 0;
  SubscriberId next_id_ = 1;
  uint64_t published_ = 0;
};

// RAII subscriber that buffers every event it sees, in publish order.
// The standard way for tests, benches, and exporter pipelines to collect
// a run's event stream.
class EventLog {
 public:
  explicit EventLog(EventBus* bus);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  ~EventLog();

  const std::vector<Event>& events() const { return events_; }
  std::vector<Event> Take() { return std::exchange(events_, {}); }

 private:
  EventBus* bus_;
  EventBus::SubscriberId id_ = 0;
  std::vector<Event> events_;
};

}  // namespace circus::obs

#endif  // SRC_OBS_BUS_H_
