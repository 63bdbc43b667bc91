// Section 4.3.4 / 4.3.6 ablation: waiting policies and collators.
// With members whose service times are skewed, the unanimous (wait-all)
// default runs at the pace of the slowest member while first-come runs
// at the pace of the fastest; majority sits between. This bench measures
// replicated-call latency per collation mode, for troupes whose member
// delays are exponentially distributed, plus the buffered-result effect:
// the late members' calls are answered from the server-side buffer
// (execution appears instantaneous to them).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/core/process.h"
#include "src/net/world.h"

using circus::Bytes;
using circus::StatusOr;
using circus::core::CallOptions;
using circus::core::Collation;
using circus::core::ModuleNumber;
using circus::core::RpcProcess;
using circus::core::ServerCallContext;
using circus::core::Troupe;
using circus::net::World;
using circus::sim::Duration;
using circus::sim::Task;

namespace {

struct LatencyResult {
  double mean_call_ms = 0;
  int watchdog_disagreements = 0;
};

LatencyResult MeasureLatency(Collation collation, bool watchdog,
                             int members, int calls,
                             double mean_service_ms, uint64_t seed) {
  World world(seed, circus::sim::SyscallCostModel::Free());
  Troupe troupe;
  troupe.id = circus::core::TroupeId{66};
  std::vector<std::unique_ptr<RpcProcess>> processes;
  // Per-member deterministic service-time streams.
  auto rngs = std::make_shared<std::vector<circus::sim::Rng>>();
  for (int i = 0; i < members; ++i) {
    rngs->emplace_back(seed * 131 + i);
  }
  for (int i = 0; i < members; ++i) {
    circus::sim::Host* host = world.AddHost("m" + std::to_string(i));
    auto process =
        std::make_unique<RpcProcess>(&world.network(), host, 9000);
    const ModuleNumber module = process->ExportModule("work");
    const int index = i;
    process->ExportProcedure(
        module, 0,
        [rngs, index, mean_service_ms](
            ServerCallContext& ctx,
            const Bytes& args) -> Task<StatusOr<Bytes>> {
          // Exponentially distributed execution time: replicas compute
          // at different rates (the Section 4.3.4 skew).
          co_await ctx.process->host()->SleepFor(
              (*rngs)[index].Exponential(
                  Duration::MillisF(mean_service_ms)));
          co_return args;
        });
    process->SetTroupeId(troupe.id);
    troupe.members.push_back(process->module_address(module));
    processes.push_back(std::move(process));
  }
  circus::sim::Host* client_host = world.AddHost("client");
  RpcProcess client(&world.network(), client_host, 8000);

  double total_ms = 0;
  auto disagreements = std::make_shared<int>(0);
  bool done = false;
  world.executor().Spawn(
      [](RpcProcess* c, Troupe t, Collation col, bool wd, int n,
         double* out, std::shared_ptr<int> bad, bool* flag) -> Task<void> {
        const circus::core::ThreadId thread = c->NewRootThread();
        CallOptions opts;
        if (wd) {
          // First-come with background verification (Section 4.3.4).
          opts.watchdog = [bad](const circus::Status& verdict) {
            if (!verdict.ok()) {
              ++*bad;
            }
          };
        } else {
          opts.collation = col;
        }
        for (int i = 0; i < n; ++i) {
          const circus::sim::TimePoint t0 = c->host()->executor().now();
          StatusOr<Bytes> r =
              co_await c->Call(thread, t, 0, 0, Bytes(8, 'w'), opts);
          CIRCUS_CHECK(r.ok());
          *out += (c->host()->executor().now() - t0).ToMillisF();
        }
        *flag = true;
      }(&client, troupe, collation, watchdog, calls, &total_ms,
        disagreements, &done));
  world.RunFor(Duration::Seconds(3600));
  CIRCUS_CHECK(done);
  LatencyResult result;
  result.mean_call_ms = total_ms / calls;
  result.watchdog_disagreements = *disagreements;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  circus::bench::BenchReport report("collators", argc, argv);
  const int kCalls = report.Calls(100, 20);
  constexpr double kMeanServiceMs = 20.0;
  report.Note("calls", kCalls);
  std::printf("Sections 4.3.4/4.3.6: waiting policies and collators\n");
  std::printf("(member service times ~ Exp(%.0f ms); ms per call over %d "
              "calls)\n\n",
              kMeanServiceMs, kCalls);
  std::printf("%-9s %12s %12s %12s %12s\n", "members", "unanimous",
              "first-come", "majority", "watchdog");
  const std::vector<int> sizes = report.quick()
                                     ? std::vector<int>{1, 3}
                                     : std::vector<int>{1, 3, 5, 7};
  for (int members : sizes) {
    std::printf("%-9d", members);
    circus::obs::json::Value& row =
        report.AddRow("collation").Set("members", members);
    const char* keys[] = {"unanimous_ms", "first_come_ms", "majority_ms"};
    int column = 0;
    for (Collation c : {Collation::kUnanimous, Collation::kFirstCome,
                        Collation::kMajority}) {
      const double ms =
          MeasureLatency(c, /*watchdog=*/false, members, kCalls,
                         kMeanServiceMs, 2222 + members)
              .mean_call_ms;
      std::printf(" %12.1f", ms);
      row.Set(keys[column++], ms);
    }
    LatencyResult wd =
        MeasureLatency(Collation::kFirstCome, /*watchdog=*/true, members,
                       kCalls, kMeanServiceMs, 2222 + members);
    std::printf(" %12.1f", wd.mean_call_ms);
    row.Set("watchdog_ms", wd.mean_call_ms);
    CIRCUS_CHECK(wd.watchdog_disagreements == 0);  // replicas agree
    std::printf("\n");
  }
  std::printf("\nexpected shape: unanimous tracks E[max] ~ H_n * mean "
              "(slowest member);\nfirst-come tracks E[min] = mean/n "
              "(fastest member); majority sits between\n(the median "
              "order statistic); watchdog matches first-come latency "
              "while still\nverifying every straggler in the "
              "background.\n");
  return 0;
}
