// Simulated time. The discrete-event executor advances a virtual clock;
// nothing in Circus reads the real clock, which keeps every run
// reproducible from a seed. Durations and time points are nanosecond
// integers wrapped in strong types.
#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <compare>
#include <cstdint>
#include <string>

namespace circus::sim {

// A signed span of simulated time with nanosecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration Nanos(int64_t n) { return Duration(n); }
  static constexpr Duration Micros(int64_t us) { return Duration(us * 1000); }
  static constexpr Duration Millis(int64_t ms) {
    return Duration(ms * 1000000);
  }
  static constexpr Duration Seconds(int64_t s) {
    return Duration(s * 1000000000);
  }
  // Fractional construction, e.g. Duration::MillisF(8.1).
  static constexpr Duration MillisF(double ms) {
    return Duration(RoundToInt64(ms * 1e6));
  }
  static constexpr Duration SecondsF(double s) {
    return Duration(RoundToInt64(s * 1e9));
  }
  static constexpr Duration Zero() { return Duration(0); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double ToMillisF() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double ToSecondsF() const {
    return static_cast<double>(ns_) / 1e9;
  }

  constexpr Duration operator+(Duration d) const {
    return Duration(ns_ + d.ns_);
  }
  constexpr Duration operator-(Duration d) const {
    return Duration(ns_ - d.ns_);
  }
  constexpr Duration operator*(int64_t k) const { return Duration(ns_ * k); }
  constexpr Duration operator/(int64_t k) const { return Duration(ns_ / k); }
  constexpr Duration operator-() const { return Duration(-ns_); }
  Duration& operator+=(Duration d) {
    ns_ += d.ns_;
    return *this;
  }
  Duration& operator-=(Duration d) {
    ns_ -= d.ns_;
    return *this;
  }

  constexpr auto operator<=>(const Duration&) const = default;

  std::string ToString() const;  // e.g. "8.100ms"

 private:
  static constexpr int64_t RoundToInt64(double x) {
    return static_cast<int64_t>(x >= 0 ? x + 0.5 : x - 0.5);
  }
  constexpr explicit Duration(int64_t ns) : ns_(ns) {}
  int64_t ns_ = 0;
};

// An instant of simulated time, measured from the start of the simulation.
class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint FromNanos(int64_t n) { return TimePoint(n); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double ToSecondsF() const {
    return static_cast<double>(ns_) / 1e9;
  }

  constexpr TimePoint operator+(Duration d) const {
    return TimePoint(ns_ + d.nanos());
  }
  constexpr TimePoint operator-(Duration d) const {
    return TimePoint(ns_ - d.nanos());
  }
  constexpr Duration operator-(TimePoint t) const {
    return Duration::Nanos(ns_ - t.ns_);
  }

  constexpr auto operator<=>(const TimePoint&) const = default;

  std::string ToString() const;

 private:
  constexpr explicit TimePoint(int64_t ns) : ns_(ns) {}
  int64_t ns_ = 0;
};

}  // namespace circus::sim

#endif  // SRC_SIM_TIME_H_
