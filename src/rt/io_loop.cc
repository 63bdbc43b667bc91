#include "src/rt/io_loop.h"

#include <sys/epoll.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "src/common/check.h"

namespace circus::rt {

namespace {

int64_t RealtimeNanos() {
  timespec ts{};
  CIRCUS_CHECK(clock_gettime(CLOCK_REALTIME, &ts) == 0);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t IoLoop::MonotonicNanos() {
  timespec ts{};
  CIRCUS_CHECK(clock_gettime(CLOCK_MONOTONIC, &ts) == 0);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

IoLoop::IoLoop(sim::Executor* executor) : executor_(executor) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  CIRCUS_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  // The kernel defers a timed epoll wait by the thread's timer slack
  // (50 us by default, more for long waits) to batch wakeups. The loop
  // sleeps to exact virtual deadlines, so ask for none.
  CIRCUS_CHECK_MSG(prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL) == 0,
                   "prctl(PR_SET_TIMERSLACK) failed");

  // Seed the virtual clock from the wall-clock epoch (see header).
  const sim::TimePoint epoch = sim::TimePoint::FromNanos(RealtimeNanos());
  if (epoch > executor_->now()) {
    executor_->RunUntil(epoch);
  }
  sim_origin_ = executor_->now();
  mono_origin_ns_ = MonotonicNanos();
}

IoLoop::~IoLoop() {
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
}

sim::TimePoint IoLoop::WallNow() const {
  return sim_origin_ +
         sim::Duration::Nanos(MonotonicNanos() - mono_origin_ns_);
}

void IoLoop::WatchFd(int fd, std::function<void()> on_readable) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  CIRCUS_CHECK_MSG(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                   "epoll_ctl(ADD) failed");
  fd_callbacks_[fd] = std::move(on_readable);
}

void IoLoop::UnwatchFd(int fd) {
  if (fd_callbacks_.erase(fd) == 0) {
    return;
  }
  // May fail with EBADF if the caller closed the fd first; that removal
  // already happened implicitly in the kernel.
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void IoLoop::SetObservability(obs::EventBus* bus,
                              obs::MetricsRegistry* metrics) {
  bus_ = bus;
  if (metrics != nullptr) {
    wakeups_ = metrics->GetCounter("rt.loop.wakeups");
    fd_events_ = metrics->GetCounter("rt.loop.fd_events");
    timer_slack_us_ = metrics->GetHistogram("rt.loop.timer_slack_us");
    iter_us_ = metrics->GetHistogram("rt.loop.iter_us");
  } else {
    wakeups_ = nullptr;
    fd_events_ = nullptr;
    timer_slack_us_ = nullptr;
    iter_us_ = nullptr;
  }
}

bool IoLoop::RunUntil(const std::function<bool()>& done,
                      sim::Duration wall_timeout) {
  const sim::TimePoint deadline = WallNow() + wall_timeout;
  // Work/idle attribution: everything between epoll returns is work
  // (due events, done checks, fd callbacks); the epoll wait itself is
  // idle. `mark` carries the boundary across iterations.
  int64_t mark = MonotonicNanos();
  while (true) {
    // Run everything whose virtual deadline has passed, advancing the
    // executor clock to track the wall clock.
    executor_->RunUntil(WallNow());
    if (done && done()) {
      return true;
    }
    if (WallNow() >= deadline) {
      break;
    }
    sim::TimePoint wake = deadline;
    if (std::optional<sim::TimePoint> next = executor_->NextEventTime();
        next.has_value() && *next < wake) {
      wake = *next;
    }
    const int64_t wait_start = MonotonicNanos();
    const int64_t work_ns = wait_start - mark;
    stats_.busy_ns += work_ns;
    if (iter_us_ != nullptr) {
      iter_us_->Observe(static_cast<double>(work_ns) / 1000.0);
    }
    // The wait is bounded by the next live deadline, to the nanosecond;
    // a deadline already past polls without blocking.
    int64_t timeout_ns = (wake - WallNow()).nanos();
    if (timeout_ns < 0) {
      timeout_ns = 0;
    }
    const timespec timeout{
        .tv_sec = static_cast<time_t>(timeout_ns / 1000000000),
        .tv_nsec = static_cast<long>(timeout_ns % 1000000000)};
    epoll_event events[16];
    const int n =
        epoll_pwait2(epoll_fd_, events, static_cast<int>(std::size(events)),
                     &timeout, nullptr);
    mark = MonotonicNanos();
    stats_.idle_ns += mark - wait_start;
    if (n < 0) {
      CIRCUS_CHECK_MSG(errno == EINTR, "epoll_pwait2 failed");
      continue;
    }
    ++stats_.wakeups;
    stats_.fd_events += static_cast<uint64_t>(n);
    // A timer fire is a wakeup whose deadline had passed by the time
    // epoll returned, whether or not fds were ready too.
    int64_t slack_ns = (WallNow() - wake).nanos();
    const bool timer_fired = slack_ns >= 0;
    if (timer_fired) {
      ++stats_.timer_fires;
    } else {
      slack_ns = 0;
    }
    if (wakeups_ != nullptr) {
      wakeups_->Increment();
      fd_events_->Add(static_cast<uint64_t>(n));
      if (timer_fired) {
        timer_slack_us_->Observe(static_cast<double>(slack_ns) / 1000.0);
      }
    }
    if (bus_ != nullptr && bus_->active()) {
      obs::Event e;
      e.kind = obs::EventKind::kLoopWakeup;
      e.a = static_cast<uint64_t>(n);
      e.b = timer_fired ? 1 : 0;
      e.c = static_cast<uint64_t>(slack_ns);
      bus_->Publish(std::move(e));
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      // Re-look up per event: an earlier callback in this batch (or the
      // callback itself) may have unwatched the fd. Copy out so that
      // UnwatchFd from inside the callback cannot free the closure
      // mid-flight.
      auto it = fd_callbacks_.find(fd);
      if (it == fd_callbacks_.end()) {
        continue;
      }
      std::function<void()> cb = it->second;
      cb();
    }
  }
  return done ? done() : false;
}

}  // namespace circus::rt
