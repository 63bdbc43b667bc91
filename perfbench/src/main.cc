// circus_perfbench: wall-clock benchmark of replicated calls and replfs
// transactions on the rt runtime (real loopback UDP, one IoLoop thread).
//
//   circus_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--spans-out <path>]
//
// With --trace 0 one untraced window of <s> seconds gives the end-to-end
// metrics. With --trace 1 an untraced window of <s>/2 seconds gives the
// per-layer counter ledger and CPU baseline, then a traced window of <s>/2
// seconds (LatencyAttributor on the bus, benchmark spans in memory) gives
// stage medians, span self times and the tracing overhead. Every output
// is checked; any failed check or conservation mismatch exits 1. The
// last line of stdout is one JSON object with the run's metrics.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/ledger.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workload.h"
#include "src/obs/latency.h"

namespace perfbench {
namespace {

using circus::obs::LatencyAttributor;
using circus::obs::Stage;
using circus::sim::Duration;

constexpr int kSetups = 41;
constexpr double kSettleSeconds = 1.0;
constexpr double kDrainSeconds = 3.0;

struct WorkloadSpec {
  const char* name;
  std::function<std::unique_ptr<Workload>(uint64_t seed)> make;
  bool echo;  // replies must equal their arguments; one execution/member
};

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"echo_small_open",
       [](uint64_t seed) { return MakeEchoOpen(seed, 16, 1500.0); }, true},
      {"echo_bulk_open",
       [](uint64_t seed) { return MakeEchoOpen(seed, 16384, 100.0); }, true},
      {"replfs_mix", [](uint64_t seed) { return MakeReplfsMix(seed, 4, 4); },
       false},
  };
  return specs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->seconds < 1 || args->seconds > 60) {
    std::fprintf(stderr, "--seconds must be within 1..60\n");
    return false;
  }
  return !args->workload.empty();
}

// One measured window: the workload's own tallies plus the ledger.
struct WindowRun {
  Window* window = nullptr;
  double load_s = 0;  // issue phase, excluding the drain
  Snapshot before;
  Snapshot after;
  size_t recv_backlog_peak = 0;
  uint64_t carried = 0;  // earlier windows' ops still outstanding
  double rss_before_mb = 0;  // peak RSS when the window began
  double rss_after_mb = 0;
};

// Issues load for `seconds`, then drains until every op of the window
// has ended or the drain deadline passed; ops still outstanding then
// count as failed.
WindowRun RunWindow(Workload& w, double seconds) {
  circus::rt::Runtime& rt = w.runtime();
  WindowRun run;
  run.window = w.NewWindow();
  Window* window = run.window;
  run.carried = w.Outstanding();
  run.rss_before_mb = PeakRssMb();
  run.before = TakeSnapshot(rt, w.processes());
  w.TakeBacklogPeak();
  w.Begin(window, rt.loop().WallNow() + Duration::SecondsF(seconds));
  rt.RunFor(Duration::SecondsF(seconds));
  run.load_s =
      static_cast<double>(MonotonicNanos() - run.before.wall_ns) / 1e9;
  rt.RunUntil([window] { return window->outstanding == 0; },
              Duration::SecondsF(kDrainSeconds));
  window->closed = true;
  window->failed += window->outstanding;
  run.after = TakeSnapshot(rt, w.processes());
  run.recv_backlog_peak = w.TakeBacklogPeak();
  run.rss_after_mb = PeakRssMb();
  return run;
}

double PerOp(double amount, const WindowRun& run) {
  return run.window->completed == 0
             ? 0
             : amount / static_cast<double>(run.window->completed);
}

double CpuUsPerOp(const WindowRun& run) {
  return PerOp(static_cast<double>(run.after.user_us - run.before.user_us +
                                   run.after.sys_us - run.before.sys_us),
               run);
}

// A named metric value with its unit, in print order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

void PrintMetrics(const char* title, const MetricList& list) {
  std::printf("%s\n", title);
  for (const Metric& m : list.metrics()) {
    std::printf("  %-32s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string JsonResult(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricList& list) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : list.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

// Per-layer counters of one untraced window.
void AddLedger(const WindowRun& a, MetricList* out) {
  const Snapshot& b = a.before;
  const Snapshot& e = a.after;
  auto per_op = [&a](uint64_t later, uint64_t earlier) {
    return PerOp(static_cast<double>(later) - static_cast<double>(earlier),
                 a);
  };
  out->Add("rt.loop.wakeups_per_op", per_op(e.loop.wakeups, b.loop.wakeups),
           "count");
  out->Add("rt.loop.timer_fires_per_op",
           per_op(e.loop.timer_fires, b.loop.timer_fires), "count");
  out->Add("rt.loop.fd_events_per_op",
           per_op(e.loop.fd_events, b.loop.fd_events), "count");
  const double busy = static_cast<double>(e.loop.busy_ns - b.loop.busy_ns);
  const double idle = static_cast<double>(e.loop.idle_ns - b.loop.idle_ns);
  out->Add("rt.loop.busy_frac", busy + idle > 0 ? busy / (busy + idle) : 0,
           "fraction");
  out->Add("rt.loop.iter_p999_us",
           BucketPercentile(SubtractBuckets(e.iter_us, b.iter_us), 0.999),
           "us");
  out->Add("rt.loop.timer_slack_p99_us",
           BucketPercentile(
               SubtractBuckets(e.timer_slack_us, b.timer_slack_us), 0.99),
           "us");
  out->Add("rt.fabric.datagrams_per_op",
           per_op(e.fabric.packets_sent, b.fabric.packets_sent), "count");
  out->Add("rt.fabric.bytes_per_op",
           per_op(e.fabric.bytes_sent, b.fabric.bytes_sent), "bytes");
  // Every socket is in this process: sent minus delivered is the
  // loopback drop count.
  const double sent =
      static_cast<double>(e.fabric.packets_sent - b.fabric.packets_sent);
  const double delivered = static_cast<double>(
      e.fabric.packets_delivered - b.fabric.packets_delivered);
  out->Add("rt.fabric.lost_per_op", PerOp(sent - delivered, a), "count");
  out->Add("rt.fabric.backpressure",
           static_cast<double>(e.fabric.backpressure - b.fabric.backpressure),
           "count");
  out->Add("rt.fabric.recv_backlog_peak",
           static_cast<double>(a.recv_backlog_peak), "count");
  out->Add("msg.data_segments_per_op",
           per_op(e.msg.data_segments_sent, b.msg.data_segments_sent),
           "count");
  out->Add("msg.acks_per_op",
           per_op(e.msg.ack_segments_sent, b.msg.ack_segments_sent), "count");
  out->Add("msg.probes_per_op",
           per_op(e.msg.probe_segments_sent, b.msg.probe_segments_sent),
           "count");
  const double retransmits = static_cast<double>(
      e.msg.retransmitted_segments - b.msg.retransmitted_segments);
  const double data_segments = static_cast<double>(
      e.msg.data_segments_sent - b.msg.data_segments_sent);
  out->Add("msg.retransmits_per_op", PerOp(retransmits, a), "count");
  out->Add("msg.retransmit_frac",
           data_segments > 0 ? retransmits / data_segments : 0, "fraction");
  out->Add("msg.duplicates_per_op",
           per_op(e.msg.duplicate_messages_suppressed,
                  b.msg.duplicate_messages_suppressed),
           "count");
  out->Add("msg.segment_encodes_per_op",
           per_op(e.segments.segments, b.segments.segments), "count");
  out->Add("msg.segment_bytes_per_op",
           per_op(e.segments.bytes, b.segments.bytes), "bytes");
  out->Add("marshal.buffers_per_op",
           per_op(e.marshal.buffers, b.marshal.buffers), "count");
  out->Add("marshal.bytes_per_op", per_op(e.marshal.bytes, b.marshal.bytes),
           "bytes");
  const uint64_t attempted = a.window->attempted;
  out->Add("core.executions_per_op",
           attempted == 0 ? 0
                          : static_cast<double>(e.core.calls_executed -
                                                b.core.calls_executed) /
                                static_cast<double>(attempted),
           "count");
  out->Add("core.call_messages_per_op",
           per_op(e.core.call_messages_received,
                  b.core.call_messages_received),
           "count");
  out->Add("sim.events_per_op", per_op(e.events_run, b.events_run), "count");
  out->Add("proc.user_us_per_op",
           PerOp(static_cast<double>(e.user_us - b.user_us), a), "us");
  out->Add("proc.sys_us_per_op",
           PerOp(static_cast<double>(e.sys_us - b.sys_us), a), "us");
  out->Add("proc.ctx_switches_per_op",
           per_op(e.ctx_switches, b.ctx_switches), "count");
  std::vector<double> lag = a.window->lag_us;
  out->Add("bench.gen_lag_p90_us", Percentile(lag, 0.90), "us");
}

double SpanP50(std::map<std::string, SelfTime>& self, const char* name) {
  auto it = self.find(name);
  return it == self.end() ? 0 : Percentile(it->second.duration_us, 0.5);
}

// Stage medians, bus events and tracing overhead of the traced window.
// The bus stamps events with the executor's clock, which reads the same
// for every event of one loop batch, so stages that never span a batch
// (client marshal, server queue and execute) read 0 on rt; they are
// printed but kept out of the result.
void AddTraced(const WindowRun& a, const WindowRun& b,
               const LatencyAttributor& attributor, MetricList* out,
               MetricList* printed) {
  auto stage_p50 = [&attributor](Stage stage) {
    return BucketPercentile(ReadBuckets(attributor.StageHistogramUs(stage)),
                            0.5);
  };
  printed->Add("core.client_marshal_p50_us",
               stage_p50(Stage::kClientMarshal), "us");
  out->Add("core.request_flight_p50_us", stage_p50(Stage::kRequestFlight),
           "us");
  printed->Add("core.server_queue_p50_us", stage_p50(Stage::kServerQueue),
               "us");
  printed->Add("core.server_execute_p50_us",
               stage_p50(Stage::kServerExecute), "us");
  out->Add("core.reply_collate_p50_us", stage_p50(Stage::kReplyCollate),
           "us");
  out->Add("obs.bus_events_per_op",
           PerOp(static_cast<double>(b.after.bus_events - b.before.bus_events),
                 b),
           "count");
  const double untraced = CpuUsPerOp(a);
  out->Add("obs.trace_overhead_frac",
           untraced > 0 ? CpuUsPerOp(b) / untraced - 1 : 0, "fraction");
}

// Conservation across independent sources, over the testbed's lifetime:
// every segment an endpoint sent is one fabric send, and the fabric
// never delivers more than was sent.
void CheckConservation(Workload& w, std::vector<std::string>* errors) {
  uint64_t segments = 0;
  for (circus::core::RpcProcess* p : w.processes()) {
    const auto& c = p->endpoint().counters();
    segments += c.data_segments_sent + c.ack_segments_sent +
                c.probe_segments_sent;
  }
  const circus::rt::UdpFabricStats& fabric = w.runtime().fabric().stats();
  if (segments != fabric.packets_sent) {
    errors->push_back("conservation: endpoints sent " +
                      std::to_string(segments) + " segments, fabric sent " +
                      std::to_string(fabric.packets_sent) + " datagrams");
  }
  if (fabric.packets_delivered > fabric.packets_sent) {
    errors->push_back("conservation: fabric delivered " +
                      std::to_string(fabric.packets_delivered) +
                      " datagrams but sent " +
                      std::to_string(fabric.packets_sent));
  }
}

void CheckWindow(const WorkloadSpec& spec, const WindowRun& run,
                 std::vector<std::string>* errors) {
  const Window& w = *run.window;
  if (w.mismatches != 0) {
    errors->push_back(std::to_string(w.mismatches) +
                      " ops returned output that differs from the expected");
  }
  if (spec.echo) {
    // A completed call ran once at every member. A failed call, or one
    // carried over still outstanding from an earlier window, ran at most
    // once at each; with neither, the count is exact.
    const uint64_t executions =
        run.after.core.calls_executed - run.before.core.calls_executed;
    const uint64_t least = kTroupeSize * w.completed;
    const uint64_t most = kTroupeSize * (w.attempted + run.carried);
    if (executions < least || executions > most) {
      errors->push_back("core: " + std::to_string(executions) +
                        " executions for " + std::to_string(w.completed) +
                        " completed of " + std::to_string(w.attempted) +
                        " calls (+" + std::to_string(run.carried) +
                        " carried over) to a troupe of " +
                        std::to_string(kTroupeSize));
    }
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: circus_perfbench --workload <name> --seed <n> "
                 "--seconds <1..60> --trace <0|1> [--spans-out <path>]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Specs()) {
    if (args.workload == s.name) {
      spec = &s;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Set-up: construct a fresh runtime and troupe and run to the first
  // successful op. The measured testbed is set up first; the other
  // kSetups - 1 are throwaway testbeds set up between slices of the
  // settle phase, so the median samples the host across that phase
  // rather than in one burst.
  std::vector<double> setup_s;
  auto set_up = [&spec, &args, &setup_s]() -> std::unique_ptr<Workload> {
    const int64_t t0 = MonotonicNanos();
    std::unique_ptr<Workload> w = spec->make(args.seed);
    if (!w->FirstOp()) {
      return nullptr;
    }
    setup_s.push_back(static_cast<double>(MonotonicNanos() - t0) / 1e9);
    return w;
  };
  std::unique_ptr<Workload> bed = set_up();
  if (bed == nullptr) {
    std::fprintf(stderr, "set-up: the first op did not succeed\n");
    return 1;
  }
  // Settle under load, unmeasured, while timing the other set-ups.
  circus::rt::Runtime& rt = bed->runtime();
  Window* settle = bed->NewWindow();
  const circus::sim::TimePoint settle_end =
      rt.loop().WallNow() + Duration::SecondsF(kSettleSeconds);
  bed->Begin(settle, settle_end);
  for (int i = 1; i < kSetups; ++i) {
    rt.RunFor(Duration::SecondsF(kSettleSeconds / kSetups));
    if (set_up() == nullptr) {
      std::fprintf(stderr, "set-up %d: the first op did not succeed\n", i);
      return 1;
    }
  }
  // Issue the rest of the settle load before draining it; a drain that
  // starts early would let settle ops run on into the measured window.
  const Duration rest = settle_end - rt.loop().WallNow();
  if (rest > Duration::Zero()) {
    rt.RunFor(rest);
  }
  rt.RunUntil([settle] { return settle->outstanding == 0; },
              Duration::SecondsF(kDrainSeconds));
  settle->closed = true;

  std::vector<std::string> errors;
  MetricList metrics;
  std::vector<WindowRun> runs;
  std::map<std::string, SelfTime> self;
  LatencyAttributor attributor;
  if (!args.trace) {
    runs.push_back(RunWindow(*bed, args.seconds));
  } else {
    runs.push_back(RunWindow(*bed, args.seconds / 2));
    attributor.Attach(&rt.bus());
    bed->spans().set_enabled(true);
    runs.push_back(RunWindow(*bed, args.seconds / 2));
    bed->spans().set_enabled(false);
    attributor.Detach();
    self = bed->spans().SelfTimes();
    if (!args.spans_out.empty() &&
        !bed->spans().WriteJsonl(args.spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_out.c_str());
    }
  }
  for (const WindowRun& run : runs) {
    CheckWindow(*spec, run, &errors);
  }
  bed->CheckOutputs(&errors);
  CheckConservation(*bed, &errors);

  const WindowRun& a = runs.front();
  Window& wa = *a.window;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const WindowRun& run : runs) {
    attempted += run.window->attempted;
    failed += run.window->failed;
  }

  std::printf("workload %s  seed %" PRIu64 "  seconds %.1f  trace %d\n",
              spec->name, args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("ops attempted %" PRIu64 "  completed %" PRIu64
              "  failed %" PRIu64 " (error or outstanding after %.0f s "
              "drain)\n",
              wa.attempted, wa.completed, wa.failed, kDrainSeconds);

  // Latency and peak RSS are reported but not part of the result: on a
  // shared VM the open-loop percentiles move by 2x with host load, and
  // peak RSS grows with the ops a closed loop completes (see README.md).
  MetricList end_to_end;
  std::vector<double> setups = setup_s;
  end_to_end.Add("setup_s", Percentile(setups, 0.5), "s");
  end_to_end.Add("ops_per_s",
                 static_cast<double>(wa.completed) / a.load_s, "1/s");
  end_to_end.Add("cpu_us_per_op", CpuUsPerOp(a), "us");
  end_to_end.Add("rss_growth_kb_per_op",
                 PerOp((a.rss_after_mb - a.rss_before_mb) * 1024, a), "KiB");

  MetricList reported;
  reported.Add("peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> call_us = wa.call_us;
  reported.Add("call_p50_us", Percentile(call_us, 0.5), "us");
  reported.Add("call_p90_us", Percentile(call_us, 0.9), "us");
  reported.Add("call_p99_us", Percentile(call_us, 0.99), "us");
  reported.Add("call_samples", static_cast<double>(call_us.size()), "count");
  if (!spec->echo) {
    std::vector<double> txn_us = wa.txn_us;
    reported.Add("txn_p50_us", Percentile(txn_us, 0.5), "us");
    reported.Add("txn_p90_us", Percentile(txn_us, 0.9), "us");
    reported.Add("txn_samples", static_cast<double>(txn_us.size()), "count");
  }
  reported.Add("failed_frac",
               wa.attempted == 0 ? 0
                                 : static_cast<double>(wa.failed) /
                                       static_cast<double>(wa.attempted),
               "fraction");

  if (!args.trace) {
    PrintMetrics("end-to-end (untraced):", end_to_end);
    PrintMetrics("end-to-end, reported only:", reported);
    metrics = end_to_end;
  } else {
    const WindowRun& b = runs.back();
    MetricList printed;
    AddLedger(a, &metrics);
    AddTraced(a, b, attributor, &metrics, &printed);
    if (!spec->echo) {
      printed.Add("txn.attempts_per_txn",
                  wa.txns == 0 ? 0
                               : static_cast<double>(wa.txn_attempts) /
                                     static_cast<double>(wa.txns),
                  "count");
      printed.Add("txn.commit_wait_p50_us",
                  BucketPercentile(ReadBuckets(attributor.commit_wait_us()),
                                   0.5),
                  "us");
      printed.Add(
          "txn.broadcast_wait_p50_us",
          BucketPercentile(ReadBuckets(attributor.broadcast_wait_us()), 0.5),
          "us");
      printed.Add("replfs.open_p50_us", SpanP50(self, "replfs.open"), "us");
      printed.Add("replfs.write_p50_us", SpanP50(self, "replfs.write"), "us");
      printed.Add("replfs.close_p50_us", SpanP50(self, "replfs.close"), "us");
      printed.Add("replfs.commit_p50_us", SpanP50(self, "replfs.commit"),
                  "us");
    }
    PrintMetrics("end-to-end of the untraced half:", end_to_end);
    PrintMetrics("end-to-end of the untraced half, reported only:",
                 reported);
    PrintMetrics("per-layer:", metrics);
    PrintMetrics("per-layer, reported only:", printed);
    std::printf("span self time in the traced half (%" PRIu64
                " ops, %zu spans):\n",
                b.window->completed, bed->spans().size());
    for (auto& [name, t] : self) {
      std::printf("  %-20s %8" PRIu64 " spans  %12.3f us self/op  "
                  "%12.3f us p50\n",
                  name.c_str(), t.spans, PerOp(t.self_us, b),
                  Percentile(t.duration_us, 0.5));
    }
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = errors.empty();
  std::printf("%s\n", JsonResult(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
