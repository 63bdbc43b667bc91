// The per-layer cost ledger, read from outside: every number here comes
// from a public counter of the layer it describes (IoLoop, UdpFabric,
// PairedEndpoint, RpcProcess, the marshal/segment allocation probes, the
// executor, the event bus, the runtime's metrics registry) or from
// getrusage(2). A Snapshot is taken at both ends of a measured window and
// the ledger is their difference.
#ifndef PERFBENCH_SRC_LEDGER_H_
#define PERFBENCH_SRC_LEDGER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/process.h"
#include "src/marshal/marshal.h"
#include "src/msg/paired_endpoint.h"
#include "src/msg/segment.h"
#include "src/obs/metrics.h"
#include "src/rt/io_loop.h"
#include "src/rt/runtime.h"
#include "src/rt/udp_fabric.h"

namespace perfbench {

// Non-cumulative power-of-two bucket counts of an obs::Histogram, keyed
// by bucket upper bound, so two readings subtract into a window.
using BucketCounts = std::map<double, uint64_t>;

BucketCounts ReadBuckets(const circus::obs::Histogram& histogram);
BucketCounts SubtractBuckets(const BucketCounts& later,
                             const BucketCounts& earlier);
// Percentile p in [0, 1] of bucketed values, interpolated linearly
// inside the bucket (lower bound = upper / 2) that holds the target
// rank; 0 with no values.
double BucketPercentile(const BucketCounts& buckets, double p);

// Percentile p in [0, 1] of raw samples, linear between closest ranks
// (the numpy default); 0 for no samples. Sorts `samples`.
double Percentile(std::vector<double>& samples, double p);

struct Snapshot {
  int64_t wall_ns = 0;  // CLOCK_MONOTONIC
  circus::rt::IoLoopStats loop;
  circus::rt::UdpFabricStats fabric;
  circus::msg::PairedEndpoint::Counters msg;  // summed over processes
  circus::core::RpcProcess::Stats core;       // summed over processes
  circus::marshal::BufferStats marshal;
  circus::msg::SegmentStats segments;
  uint64_t events_run = 0;
  uint64_t bus_events = 0;
  int64_t user_us = 0;
  int64_t sys_us = 0;
  uint64_t ctx_switches = 0;  // voluntary + involuntary
  BucketCounts iter_us;         // rt.loop.iter_us
  BucketCounts timer_slack_us;  // rt.loop.timer_slack_us
};

Snapshot TakeSnapshot(circus::rt::Runtime& runtime,
                      const std::vector<circus::core::RpcProcess*>& processes);

// Peak resident set size of this process so far, in MiB (ru_maxrss).
double PeakRssMb();

int64_t MonotonicNanos();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LEDGER_H_
