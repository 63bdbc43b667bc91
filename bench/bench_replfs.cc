// The replfs application bench (EXPERIMENTS.md E19): end-to-end cost of
// a replicated file-store transaction -- open, ordered-broadcast write
// staging, troupe commit -- as a function of troupe size, on the
// calibrated 4.2BSD testbed. Reports per-transaction commit latency,
// sustained transactions/sec, and the latency of a unanimous read, and
// checks that every member holds identical committed blocks afterward.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "gen/apps/replfs.h"
#include "src/apps/replfs/client.h"
#include "src/apps/replfs/server.h"
#include "src/common/check.h"
#include "src/core/process.h"
#include "src/net/world.h"

namespace fs = circus::idl::ReplFs;

using circus::Bytes;
using circus::Status;
using circus::StatusOr;
using circus::apps::replfs::BlockKey;
using circus::apps::replfs::Client;
using circus::apps::replfs::Server;
using circus::apps::replfs::Session;
using circus::core::RpcProcess;
using circus::core::ThreadId;
using circus::core::Troupe;
using circus::net::World;
using circus::sim::Duration;
using circus::sim::Task;

namespace {

constexpr uint32_t kWritesPerTxn = 2;
constexpr size_t kWordsPerBlock = 16;

Task<Status> WriteBlocksBody(std::string name, uint16_t fill,
                             Session* session) {
  StatusOr<uint16_t> fd = co_await session->Open(name);
  if (!fd.ok()) {
    co_return fd.status();
  }
  for (uint32_t b = 0; b < kWritesPerTxn; ++b) {
    fs::BlockData data(kWordsPerBlock,
                       static_cast<uint16_t>(fill + b));
    Status s = co_await session->Write(*fd, b, std::move(data));
    if (!s.ok()) {
      co_return s;
    }
  }
  co_return co_await session->Close(*fd);
}

Client::Body MakeWriteBlocksBody(std::string name, uint16_t fill) {
  return [name, fill](Session& session) {
    return WriteBlocksBody(name, fill, &session);
  };
}

struct RunResult {
  double mean_commit_ms = 0;
  double min_commit_ms = 0;
  double max_commit_ms = 0;
  double txns_per_second = 0;
  double read_ms = 0;
  bool replicas_identical = false;
};

Task<void> TxnLoop(Client* client, RpcProcess* process, int txns,
                   std::vector<double>* latencies,
                   circus::sim::TimePoint* finished_at, bool* done) {
  const ThreadId thread = process->NewRootThread();
  for (int i = 0; i < txns; ++i) {
    const Client::Body body = MakeWriteBlocksBody(
        "bench" + std::to_string(i % 8), static_cast<uint16_t>(i));
    const circus::sim::TimePoint start =
        process->host()->executor().now();
    Status s = co_await client->Run(thread, body);
    CIRCUS_CHECK_MSG(s.ok(), s.ToString().c_str());
    latencies->push_back(
        (process->host()->executor().now() - start).ToMillisF());
  }
  *finished_at = process->host()->executor().now();
  *done = true;
}

Task<void> ReadOnce(Client* client, RpcProcess* process, double* out_ms,
                    bool* done) {
  const ThreadId thread = process->NewRootThread();
  const circus::sim::TimePoint start = process->host()->executor().now();
  StatusOr<fs::BlockData> data =
      co_await client->ReadBlock(thread, "bench0", 0);
  CIRCUS_CHECK_MSG(data.ok(), data.status().ToString().c_str());
  *out_ms = (process->host()->executor().now() - start).ToMillisF();
  *done = true;
}

RunResult RunReplFsLoad(int members, int txns) {
  World world(9100 + members);
  Troupe troupe;
  troupe.id = circus::core::TroupeId{900};
  std::vector<std::unique_ptr<RpcProcess>> processes;
  std::vector<std::unique_ptr<Server>> servers;
  for (int i = 0; i < members; ++i) {
    circus::sim::Host* host = world.AddHost("fs" + std::to_string(i));
    auto process =
        std::make_unique<RpcProcess>(&world.network(), host, 9000);
    auto server = std::make_unique<Server>(process.get());
    process->SetTroupeId(troupe.id);
    troupe.members.push_back(
        process->module_address(server->module_number()));
    world.executor().Spawn(server->DeliverLoop());
    processes.push_back(std::move(process));
    servers.push_back(std::move(server));
  }
  circus::sim::Host* client_host = world.AddHost("client");
  auto client_process =
      std::make_unique<RpcProcess>(&world.network(), client_host, 8000);
  Client client(client_process.get());
  client.Bind(troupe);

  std::vector<double> latencies;
  bool wrote = false;
  circus::sim::TimePoint finished_at;
  const circus::sim::TimePoint t0 = world.now();
  world.executor().Spawn(TxnLoop(&client, client_process.get(), txns,
                                 &latencies, &finished_at, &wrote));
  world.RunFor(Duration::Seconds(600));
  CIRCUS_CHECK_MSG(wrote, "transaction loop did not finish");
  // Throughput over the busy phase: the loop finishes well before the
  // RunFor budget drains.
  const double elapsed_s = (finished_at - t0).ToSecondsF();

  RunResult r;
  const circus::bench::SampleStats stats =
      circus::bench::Summarize(latencies);
  r.mean_commit_ms = stats.mean;
  r.min_commit_ms = stats.min;
  r.max_commit_ms = stats.max;
  r.txns_per_second = static_cast<double>(stats.count) / elapsed_s;

  bool read_done = false;
  world.executor().Spawn(
      ReadOnce(&client, client_process.get(), &r.read_ms, &read_done));
  world.RunFor(Duration::Seconds(60));
  CIRCUS_CHECK_MSG(read_done, "unanimous read did not finish");

  // Replication check: every member holds identical committed bytes.
  r.replicas_identical = true;
  const std::optional<Bytes> reference =
      servers[0]->store().Peek(BlockKey("bench0", 0));
  CIRCUS_CHECK(reference.has_value());
  for (auto& server : servers) {
    const std::optional<Bytes> block =
        server->store().Peek(BlockKey("bench0", 0));
    if (!block.has_value() || *block != *reference) {
      r.replicas_identical = false;
    }
    CIRCUS_CHECK(server->committed_transactions() ==
                 static_cast<uint64_t>(txns));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  circus::bench::BenchReport report("replfs", argc, argv);
  const int kTxns = report.Calls(40, 8);
  report.Note("txns", kTxns);
  report.Note("writes_per_txn", static_cast<int>(kWritesPerTxn));
  report.Note("words_per_block", static_cast<int>(kWordsPerBlock));
  std::printf("E19: replfs replicated file store over generated stubs\n");
  std::printf("(%d transactions x %u block writes, 4.2BSD cost model)\n\n",
              kTxns, kWritesPerTxn);
  std::printf("%-9s %12s %10s %10s %10s %10s %12s\n", "members",
              "commit(ms)", "min", "max", "txns/sec", "read(ms)",
              "identical?");
  for (int members = 1; members <= 3; ++members) {
    RunResult r = RunReplFsLoad(members, kTxns);
    std::printf("%-9d %12.2f %10.2f %10.2f %10.1f %10.2f %12s\n", members,
                r.mean_commit_ms, r.min_commit_ms, r.max_commit_ms,
                r.txns_per_second, r.read_ms,
                r.replicas_identical ? "yes" : "NO");
    CIRCUS_CHECK(r.replicas_identical);
    report.AddRow("replfs_load")
        .Set("members", members)
        .Set("commit_ms", r.mean_commit_ms)
        .Set("min_commit_ms", r.min_commit_ms)
        .Set("max_commit_ms", r.max_commit_ms)
        .Set("txns_per_sec", r.txns_per_second)
        .Set("read_ms", r.read_ms)
        .Set("identical", r.replicas_identical);
  }
  std::printf("\nevery troupe size committed every transaction at every "
              "member with identical bytes.\n");
  return 0;
}
