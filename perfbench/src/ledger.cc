#include "perfbench/src/ledger.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

BucketCounts ReadBuckets(const circus::obs::Histogram& histogram) {
  BucketCounts out;
  uint64_t below = 0;
  for (const auto& [bound, cumulative] : histogram.CumulativeBuckets()) {
    out[bound] = cumulative - below;
    below = cumulative;
  }
  return out;
}

BucketCounts SubtractBuckets(const BucketCounts& later,
                             const BucketCounts& earlier) {
  BucketCounts out;
  for (const auto& [bound, n] : later) {
    auto it = earlier.find(bound);
    const uint64_t before = it == earlier.end() ? 0 : it->second;
    if (n > before) {
      out[bound] = n - before;
    }
  }
  return out;
}

double BucketPercentile(const BucketCounts& buckets, double p) {
  uint64_t total = 0;
  for (const auto& [bound, n] : buckets) {
    total += n;
  }
  if (total == 0) {
    return 0;
  }
  const double target = std::clamp(p, 0.0, 1.0) * static_cast<double>(total);
  uint64_t seen = 0;
  for (const auto& [bound, n] : buckets) {
    if (static_cast<double>(seen + n) >= target) {
      const double within =
          (target - static_cast<double>(seen)) / static_cast<double>(n);
      const double lower = bound / 2;
      return lower + within * (bound - lower);
    }
    seen += n;
  }
  return buckets.rbegin()->first;
}

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

int64_t MonotonicNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Snapshot TakeSnapshot(circus::rt::Runtime& runtime,
                      const std::vector<circus::core::RpcProcess*>& processes) {
  Snapshot s;
  s.wall_ns = MonotonicNanos();
  s.loop = runtime.loop().stats();
  s.fabric = runtime.fabric().stats();
  for (circus::core::RpcProcess* p : processes) {
    const auto& c = p->endpoint().counters();
    s.msg.data_segments_sent += c.data_segments_sent;
    s.msg.ack_segments_sent += c.ack_segments_sent;
    s.msg.probe_segments_sent += c.probe_segments_sent;
    s.msg.retransmitted_segments += c.retransmitted_segments;
    s.msg.duplicate_messages_suppressed += c.duplicate_messages_suppressed;
    s.msg.messages_delivered += c.messages_delivered;
    const auto& st = p->stats();
    s.core.calls_made += st.calls_made;
    s.core.calls_executed += st.calls_executed;
    s.core.call_messages_received += st.call_messages_received;
  }
  s.marshal = circus::marshal::GlobalBufferStats();
  s.segments = circus::msg::GlobalSegmentStats();
  s.events_run = runtime.executor().events_run();
  s.bus_events = runtime.bus().published();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  s.user_us = static_cast<int64_t>(usage.ru_utime.tv_sec) * 1000000 +
              usage.ru_utime.tv_usec;
  s.sys_us = static_cast<int64_t>(usage.ru_stime.tv_sec) * 1000000 +
             usage.ru_stime.tv_usec;
  s.ctx_switches = static_cast<uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  circus::obs::MetricsRegistry& metrics = runtime.metrics();
  s.iter_us = ReadBuckets(*metrics.GetHistogram("rt.loop.iter_us"));
  s.timer_slack_us =
      ReadBuckets(*metrics.GetHistogram("rt.loop.timer_slack_us"));
  return s;
}

}  // namespace perfbench
