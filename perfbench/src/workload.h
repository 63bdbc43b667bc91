// A workload owns one testbed — an rt::Runtime on a single IoLoop thread
// holding a 3-member troupe and one client — and drives load into
// measured windows. Ops issued in a window count into that window: a
// completed op records its latency, a failed op counts as failed, and an
// op still outstanding at the drain deadline counts as failed too.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/core/process.h"
#include "src/rt/runtime.h"
#include "src/sim/time.h"

namespace perfbench {

inline constexpr int kTroupeSize = 3;

struct Window {
  bool closed = false;  // past the drain deadline: late completions ignored
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  // returned an error (outstanding ones added later)
  uint64_t outstanding = 0;
  uint64_t mismatches = 0;  // completed with wrong output
  std::vector<double> call_us;  // replicated-call latency (echo / read)
  std::vector<double> txn_us;   // write-transaction latency
  std::vector<double> lag_us;   // how late each op was issued
  uint64_t txns = 0;            // committed write transactions
  uint64_t txn_attempts = 0;    // invocations of the txn body
};

class Workload {
 public:
  Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload();

  circus::rt::Runtime& runtime() { return *runtime_; }
  SpanRecorder& spans() { return spans_; }
  // Every RpcProcess of the testbed (members and client).
  std::vector<circus::core::RpcProcess*> processes() const;

  // Runs the loop until the workload's first op succeeded; false if it
  // failed or did not complete in time.
  virtual bool FirstOp() = 0;
  // Starts issuing load into `window`; no op is issued at or after
  // `stop_at`.
  virtual void Begin(Window* window, circus::sim::TimePoint stop_at) = 0;
  // End-of-run output checks; appends one message per violation.
  virtual void CheckOutputs(std::vector<std::string>* errors) = 0;

  // A window that stays alive as long as the testbed, so an op that
  // never completes can still refer to it.
  Window* NewWindow();
  // Ops of all windows so far that have not ended.
  uint64_t Outstanding() const;

  // The most datagrams seen queued in the fabric's sockets as an op
  // ended, since the last call.
  size_t TakeBacklogPeak();

 protected:
  // Destroys the runtime, which crashes every host and drains the
  // executor so all protocol coroutines unwind while the processes and
  // servers they reference still exist. Subclass destructors call it
  // first.
  void TearDown() { runtime_.reset(); }

  circus::core::RpcProcess* AddProcess(const std::string& host_name);
  void SampleBacklog();
  circus::sim::TimePoint WallNow() const {
    return runtime_->loop().WallNow();
  }

 private:
  std::vector<std::unique_ptr<circus::core::RpcProcess>> processes_;
  std::vector<std::unique_ptr<Window>> windows_;
  SpanRecorder spans_;
  size_t backlog_peak_ = 0;
  std::unique_ptr<circus::rt::Runtime> runtime_;
};

// Open-loop Poisson arrivals of echo calls of `payload_bytes` each.
std::unique_ptr<Workload> MakeEchoOpen(uint64_t seed, size_t payload_bytes,
                                       double calls_per_sec);
// Closed loop on a replfs troupe: `writers` one-block write transactions
// on distinct files beside `readers` unanimous ReadBlocks.
std::unique_ptr<Workload> MakeReplfsMix(uint64_t seed, int writers,
                                        int readers);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
