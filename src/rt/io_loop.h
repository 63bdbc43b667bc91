// The real-time pump for the discrete-event executor. The simulator's
// entire concurrency model is "callbacks ordered by a virtual clock";
// IoLoop replays that model against the wall clock: it runs every event
// whose virtual deadline has passed, then sleeps in epoll_pwait2(2) with
// a nanosecond timeout to the next live deadline, until either that
// deadline passes or a watched file descriptor (a real UDP socket)
// becomes readable. Cancelled events never bound the wait, and a wakeup
// costs the one epoll_pwait2 call: there is no timer fd to rearm or
// read. The constructor sets the calling thread's timer slack to 1 ns,
// so the kernel does not defer those timeouts to batch wakeups. The loop
// is single-threaded by construction — coroutines, channels, and hosts
// keep exactly the semantics they have under the simulator, so every
// CLAUDE.md coroutine convention carries over unchanged.
//
// Virtual-to-wall mapping: at construction the executor's clock is
// advanced to the CLOCK_REALTIME epoch (nanoseconds since 1970), so the
// clock-seeded identifiers in the protocol layers (message call numbers,
// thread IDs) are unique across daemon restarts, exactly as a rebooted
// simulated host never reuses its predecessor's identifiers. From then
// on the loop paces the executor with CLOCK_MONOTONIC so NTP steps
// cannot run time backwards.
#ifndef SRC_RT_IO_LOOP_H_
#define SRC_RT_IO_LOOP_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/obs/bus.h"
#include "src/obs/metrics.h"
#include "src/sim/executor.h"
#include "src/sim/time.h"

namespace circus::rt {

// Cumulative loop accounting for the utilization telemetry: wall time
// split into work (running due events + fd callbacks) and idle (blocked
// in epoll_pwait2). busy / (busy + idle) is the loop's utilization.
struct IoLoopStats {
  uint64_t wakeups = 0;      // epoll returns
  uint64_t fd_events = 0;    // readable fds handed to callbacks
  uint64_t timer_fires = 0;  // wakeups where the deadline had passed
                             // when epoll returned
  int64_t busy_ns = 0;       // outside epoll_pwait2
  int64_t idle_ns = 0;       // inside epoll_pwait2
};

class IoLoop {
 public:
  explicit IoLoop(sim::Executor* executor);
  IoLoop(const IoLoop&) = delete;
  IoLoop& operator=(const IoLoop&) = delete;
  ~IoLoop();

  sim::Executor& executor() { return *executor_; }

  // Registers a nonblocking fd; `on_readable` runs from the loop when it
  // becomes readable. The callback typically drains the fd and feeds a
  // sim::Channel, whose Send schedules the consumer coroutine's wakeup
  // on the executor — the loop then resumes it like any due event.
  void WatchFd(int fd, std::function<void()> on_readable);
  void UnwatchFd(int fd);

  // What the executor's clock should read right now (wall-paced).
  sim::TimePoint WallNow() const;

  // Pumps events until `done()` returns true (checked after each batch
  // of due events) or `wall_timeout` of real time elapses. Returns the
  // final done() value; an empty `done` just runs out the timeout.
  bool RunUntil(const std::function<bool()>& done,
                sim::Duration wall_timeout);
  void RunFor(sim::Duration wall_duration) { RunUntil({}, wall_duration); }

  // Wires the loop to the runtime's observability hub. Each epoll
  // wakeup bumps rt.loop.wakeups / rt.loop.fd_events and, when the
  // deadline it waited for had passed, records the timer's slack (how
  // late the loop woke relative to that deadline) in
  // rt.loop.timer_slack_us; with an active bus each wakeup also
  // publishes a kLoopWakeup event.
  void SetObservability(obs::EventBus* bus, obs::MetricsRegistry* metrics);

  const IoLoopStats& stats() const { return stats_; }

 private:
  static int64_t MonotonicNanos();

  sim::Executor* executor_;
  int epoll_fd_ = -1;
  // Anchor of the virtual<->wall mapping.
  sim::TimePoint sim_origin_;
  int64_t mono_origin_ns_ = 0;
  std::unordered_map<int, std::function<void()>> fd_callbacks_;
  obs::EventBus* bus_ = nullptr;
  obs::Counter* wakeups_ = nullptr;
  obs::Counter* fd_events_ = nullptr;
  obs::Histogram* timer_slack_us_ = nullptr;
  obs::Histogram* iter_us_ = nullptr;  // per-iteration work-phase time
  IoLoopStats stats_;
};

}  // namespace circus::rt

#endif  // SRC_RT_IO_LOOP_H_
