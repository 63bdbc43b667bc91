// Open-loop echo calls to a 3-member troupe. Arrival times are Poisson
// at a fixed rate; each call's payload is drawn from a pool of
// seed-derived byte strings, and each call runs on a fresh root thread,
// as independent users would issue them. Latency is timed from the
// call's due time, so a stall also charges the calls queued behind it.
#include <unordered_map>

#include "perfbench/src/workload.h"
#include "src/common/bytes.h"
#include "src/sim/random.h"
#include "src/sim/task.h"

namespace perfbench {
namespace {

using circus::Bytes;
using circus::StatusOr;
using circus::core::ModuleNumber;
using circus::core::RpcProcess;
using circus::core::ServerCallContext;
using circus::core::ThreadId;
using circus::core::Troupe;
using circus::core::TroupeId;
using circus::sim::Duration;
using circus::sim::Task;
using circus::sim::TimePoint;

constexpr size_t kPayloadPool = 32;

class EchoOpen : public Workload {
 public:
  EchoOpen(uint64_t seed, size_t payload_bytes, double calls_per_sec)
      : mean_gap_(Duration::SecondsF(1.0 / calls_per_sec)),
        schedule_rng_(circus::sim::Rng(seed).Fork()) {
    circus::sim::Rng payload_rng(seed ^ 0x9E3779B97F4A7C15ull);
    for (size_t i = 0; i < kPayloadPool; ++i) {
      Bytes payload(payload_bytes);
      for (uint8_t& byte : payload) {
        byte = static_cast<uint8_t>(payload_rng.NextUint64());
      }
      payloads_.push_back(std::move(payload));
    }
    troupe_.id = TroupeId{303};
    for (int i = 0; i < kTroupeSize; ++i) {
      RpcProcess* member = AddProcess("member" + std::to_string(i));
      module_ = member->ExportModule("echo");
      member->ExportProcedure(
          module_, 0,
          [this](ServerCallContext& ctx,
                 const Bytes& args) -> Task<StatusOr<Bytes>> {
            if (spans().enabled()) {
              const uint64_t thread = PackThread(ctx.thread);
              auto it = open_calls_.find(thread);
              const int64_t now = WallNow().nanos();
              spans().Add(SpanKind::kEchoHandler,
                          it == open_calls_.end() ? -1 : it->second, thread,
                          now, now);
            }
            co_return Bytes(args);
          });
      member->SetTroupeId(troupe_.id);
      troupe_.members.push_back(member->module_address(module_));
    }
    client_ = AddProcess("client");
  }

  ~EchoOpen() override { TearDown(); }

  bool FirstOp() override {
    Window* window = NewWindow();
    ++window->attempted;
    ++window->outstanding;
    client_->host()->Spawn(CallOnce(window, WallNow(), 0));
    runtime().RunUntil([window] { return window->outstanding == 0; },
                       Duration::Seconds(10));
    return window->completed == 1 && window->mismatches == 0;
  }

  void Begin(Window* window, TimePoint stop_at) override {
    client_->host()->Spawn(Generate(window, stop_at));
  }

  void CheckOutputs(std::vector<std::string>*) override {
    // Every echo reply is compared with its arguments as it arrives
    // (Window::mismatches); nothing is left to check at the end.
  }

 private:
  Task<void> Generate(Window* window, TimePoint stop_at) {
    circus::sim::Host* host = client_->host();
    TimePoint due = host->executor().now();
    while (true) {
      due = due + schedule_rng_.Exponential(mean_gap_);
      if (due >= stop_at) {
        break;
      }
      const Duration wait = due - host->executor().now();
      if (wait > Duration::Zero()) {
        co_await host->SleepFor(wait);
      }
      const size_t payload = static_cast<size_t>(
          schedule_rng_.UniformInt(0, kPayloadPool - 1));
      ++window->attempted;
      ++window->outstanding;
      host->Spawn(CallOnce(window, due, payload));
    }
  }

  Task<void> CallOnce(Window* window, TimePoint due, size_t payload) {
    const ThreadId thread = client_->NewRootThread();
    const TimePoint issued = WallNow();
    window->lag_us.push_back(
        static_cast<double>((issued - due).nanos()) / 1000.0);
    const uint64_t packed = PackThread(thread);
    const int32_t op_span =
        spans().Begin(SpanKind::kOp, -1, packed, due.nanos());
    const int32_t call_span =
        spans().Begin(SpanKind::kCall, op_span, packed, issued.nanos());
    if (call_span >= 0) {
      open_calls_[packed] = call_span;
    }
    const Bytes& args = payloads_[payload];
    StatusOr<Bytes> result = co_await client_->Call(thread, troupe_, module_,
                                                    0, args);
    const TimePoint done = WallNow();
    spans().End(call_span, done.nanos());
    spans().End(op_span, done.nanos());
    open_calls_.erase(packed);
    SampleBacklog();
    --window->outstanding;
    if (window->closed) {
      co_return;  // already counted as failed at the drain deadline
    }
    if (!result.ok()) {
      ++window->failed;
      co_return;
    }
    if (*result != args) {
      ++window->mismatches;
    }
    ++window->completed;
    window->call_us.push_back(static_cast<double>((done - due).nanos()) /
                              1000.0);
  }

  const Duration mean_gap_;
  circus::sim::Rng schedule_rng_;
  std::vector<Bytes> payloads_;
  Troupe troupe_;
  ModuleNumber module_ = 0;
  RpcProcess* client_ = nullptr;
  // Open core.call span per thread, so a member's handler span can name
  // its parent (all hosts share this process).
  std::unordered_map<uint64_t, int32_t> open_calls_;
};

}  // namespace

std::unique_ptr<Workload> MakeEchoOpen(uint64_t seed, size_t payload_bytes,
                                       double calls_per_sec) {
  return std::make_unique<EchoOpen>(seed, payload_bytes, calls_per_sec);
}

}  // namespace perfbench
