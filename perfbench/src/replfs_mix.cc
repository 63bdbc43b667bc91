// Closed loop on a 3-member replfs troupe: writer threads commit
// one-block write transactions, each on files of its own, beside reader
// threads doing unanimous ReadBlocks of files written once at set-up.
// Writes go through the txn layer (ordered broadcast staging, troupe
// commit) and every call through stubgen-generated marshalling.
#include <map>
#include <string>
#include <utility>

#include "gen/apps/replfs.h"
#include "perfbench/src/workload.h"
#include "src/apps/replfs/client.h"
#include "src/apps/replfs/server.h"
#include "src/marshal/marshal.h"
#include "src/sim/random.h"
#include "src/sim/task.h"

namespace perfbench {
namespace {

namespace fs = circus::idl::ReplFs;

using circus::Status;
using circus::StatusOr;
using circus::apps::replfs::BlockKey;
using circus::apps::replfs::Client;
using circus::apps::replfs::Server;
using circus::apps::replfs::Session;
using circus::core::RpcProcess;
using circus::core::ThreadId;
using circus::core::Troupe;
using circus::core::TroupeId;
using circus::sim::Duration;
using circus::sim::Task;
using circus::sim::TimePoint;

constexpr size_t kWordsPerBlock = 64;
constexpr uint32_t kBlocksPerFile = 4;

fs::BlockData RandomBlock(circus::sim::Rng& rng) {
  fs::BlockData data(kWordsPerBlock);
  for (uint16_t& word : data) {
    word = static_cast<uint16_t>(rng.NextUint64());
  }
  return data;
}

std::string FileName(char prefix, int index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}
std::string WriterFile(int writer) { return FileName('w', writer); }
std::string ReaderFile(int file) { return FileName('r', file); }

// One write staged by a transaction body.
struct BlockWrite {
  std::string file;
  uint32_t block = 0;
  fs::BlockData data;
};

// Span bookkeeping of one transaction inside Client::Run.
struct TxnTrace {
  int32_t run_span = -1;
  TimePoint last_body_end;
};

class ReplfsMix : public Workload {
 public:
  ReplfsMix(uint64_t seed, int writers, int readers)
      : seed_(seed), writers_(writers), readers_(readers) {
    Troupe troupe;
    troupe.id = TroupeId{404};
    for (int i = 0; i < kTroupeSize; ++i) {
      RpcProcess* member = AddProcess("member" + std::to_string(i));
      servers_.push_back(std::make_unique<Server>(member));
      member->SetTroupeId(troupe.id);
      troupe.members.push_back(
          member->module_address(servers_.back()->module_number()));
      member->host()->Spawn(servers_.back()->DeliverLoop());
    }
    client_process_ = AddProcess("client");
    client_ = std::make_unique<Client>(client_process_);
    client_->Bind(troupe);
    circus::sim::Rng rng(seed_);
    for (int i = 0; i < readers_; ++i) {
      reader_files_.push_back(RandomBlock(rng));
    }
  }

  ~ReplfsMix() override { TearDown(); }

  // Writes every reader file in one transaction.
  bool FirstOp() override {
    Window* window = NewWindow();
    std::vector<BlockWrite> writes;
    for (int i = 0; i < readers_; ++i) {
      writes.push_back(BlockWrite{ReaderFile(i), 0, reader_files_[i]});
    }
    ++window->attempted;
    ++window->outstanding;
    client_process_->host()->Spawn(
        Transaction(window, client_process_->NewRootThread(),
                    std::move(writes), WallNow()));
    runtime().RunUntil([window] { return window->outstanding == 0; },
                       Duration::Seconds(10));
    return window->completed == 1;
  }

  void Begin(Window* window, TimePoint stop_at) override {
    circus::sim::Host* host = client_process_->host();
    for (int i = 0; i < writers_; ++i) {
      host->Spawn(Writer(window, i, stop_at));
    }
    for (int i = 0; i < readers_; ++i) {
      host->Spawn(Reader(window, i, stop_at));
    }
  }

  void CheckOutputs(std::vector<std::string>* errors) override {
    const circus::Bytes reference = servers_[0]->store().ExternalizeState();
    for (size_t i = 0; i < servers_.size(); ++i) {
      if (servers_[i]->store().ExternalizeState() != reference) {
        errors->push_back("replfs member " + std::to_string(i) +
                          " committed store differs from member 0");
      }
      const uint64_t committed = servers_[i]->committed_transactions();
      // An unacknowledged transaction (failed, or still outstanding) may
      // have committed; an acknowledged one must have.
      if (committed < acked_txns_ || committed > issued_txns_) {
        errors->push_back("replfs member " + std::to_string(i) +
                          " committed " + std::to_string(committed) +
                          " transactions; " + std::to_string(acked_txns_) +
                          " of " + std::to_string(issued_txns_) +
                          " were acknowledged");
      }
    }
    if (acked_txns_ != issued_txns_) {
      return;  // an unacknowledged write may have overwritten a block
    }
    for (const auto& [key, data] : acked_blocks_) {
      const std::optional<circus::Bytes> raw =
          servers_[0]->store().Peek(BlockKey(key.first, key.second));
      bool same = false;
      if (raw.has_value()) {
        circus::marshal::Reader r(*raw);
        same = fs::Read_BlockData(r) == data;
      }
      if (!same) {
        errors->push_back("replfs block " + key.first + "/" +
                          std::to_string(key.second) +
                          " differs from its last acknowledged write");
      }
    }
  }

 private:
  Task<void> Writer(Window* window, int writer, TimePoint stop_at) {
    circus::sim::Rng rng(seed_ * 1315423911ull +
                         static_cast<uint64_t>(writer));
    const ThreadId thread = client_process_->NewRootThread();
    TimePoint ready = WallNow();
    for (uint32_t n = 0; WallNow() < stop_at; ++n) {
      std::vector<BlockWrite> writes;
      writes.push_back(BlockWrite{WriterFile(writer), n % kBlocksPerFile,
                                  RandomBlock(rng)});
      ++window->attempted;
      ++window->outstanding;
      co_await Transaction(window, thread, std::move(writes), ready);
      ready = WallNow();
    }
  }

  Task<void> Reader(Window* window, int reader, TimePoint stop_at) {
    circus::sim::Rng rng(seed_ * 2654435761ull +
                         static_cast<uint64_t>(reader));
    const ThreadId thread = client_process_->NewRootThread();
    TimePoint ready = WallNow();
    while (WallNow() < stop_at) {
      const int file = static_cast<int>(rng.UniformInt(0, readers_ - 1));
      const TimePoint issued = WallNow();
      window->lag_us.push_back(
          static_cast<double>((issued - ready).nanos()) / 1000.0);
      ++window->attempted;
      ++window->outstanding;
      const int32_t span = spans().Begin(SpanKind::kRead, -1,
                                         PackThread(thread), issued.nanos());
      const std::string name = ReaderFile(file);
      StatusOr<fs::BlockData> data =
          co_await client_->ReadBlock(thread, name, 0);
      const TimePoint done = WallNow();
      spans().End(span, done.nanos());
      ready = done;
      SampleBacklog();
      --window->outstanding;
      if (window->closed) {
        co_return;
      }
      if (!data.ok()) {
        ++window->failed;
        continue;
      }
      if (*data != reader_files_[static_cast<size_t>(file)]) {
        ++window->mismatches;
      }
      ++window->completed;
      window->call_us.push_back(
          static_cast<double>((done - issued).nanos()) / 1000.0);
    }
  }

  // One write transaction through Client::Run; the caller has counted it
  // as attempted and outstanding.
  Task<void> Transaction(Window* window, ThreadId thread,
                         std::vector<BlockWrite> writes, TimePoint ready) {
    const TimePoint issued = WallNow();
    window->lag_us.push_back(
        static_cast<double>((issued - ready).nanos()) / 1000.0);
    ++issued_txns_;
    const uint64_t packed = PackThread(thread);
    TxnTrace trace;
    trace.run_span =
        spans().Begin(SpanKind::kTxnRun, -1, packed, issued.nanos());
    trace.last_body_end = issued;
    const Client::Body body = MakeBody(window, thread, &writes, &trace);
    const Status status = co_await client_->Run(thread, body);
    const TimePoint done = WallNow();
    if (status.ok()) {
      spans().Add(SpanKind::kCommit, trace.run_span, packed,
                  trace.last_body_end.nanos(), done.nanos());
    }
    spans().End(trace.run_span, done.nanos());
    SampleBacklog();
    --window->outstanding;
    if (status.ok()) {
      ++acked_txns_;
      for (BlockWrite& w : writes) {
        acked_blocks_[{w.file, w.block}] = std::move(w.data);
      }
    }
    if (window->closed) {
      co_return;
    }
    if (!status.ok()) {
      ++window->failed;
      co_return;
    }
    ++window->completed;
    ++window->txns;
    window->txn_us.push_back(static_cast<double>((done - issued).nanos()) /
                             1000.0);
  }

  // Built outside any co_await statement (a capturing lambda must not
  // become a std::function inside one).
  Client::Body MakeBody(Window* window, ThreadId thread,
                        const std::vector<BlockWrite>* writes,
                        TxnTrace* trace) {
    return [this, window, thread, writes, trace](Session& session) {
      return Attempt(window, thread, writes, trace, &session);
    };
  }

  Task<Status> Attempt(Window* window, ThreadId thread,
                       const std::vector<BlockWrite>* writes,
                       TxnTrace* trace, Session* session) {
    ++window->txn_attempts;
    const uint64_t packed = PackThread(thread);
    const int32_t attempt = spans().Begin(
        SpanKind::kTxnAttempt, trace->run_span, packed, WallNow().nanos());
    Status status = co_await Stage(attempt, packed, *writes, session);
    trace->last_body_end = WallNow();
    spans().End(attempt, trace->last_body_end.nanos());
    co_return status;
  }

  Task<Status> Stage(int32_t attempt, uint64_t packed,
                     const std::vector<BlockWrite>& writes,
                     Session* session) {
    for (const BlockWrite& w : writes) {
      int32_t span =
          spans().Begin(SpanKind::kOpen, attempt, packed, WallNow().nanos());
      StatusOr<uint16_t> fd = co_await session->Open(w.file);
      spans().End(span, WallNow().nanos());
      if (!fd.ok()) {
        co_return fd.status();
      }
      span = spans().Begin(SpanKind::kWrite, attempt, packed,
                           WallNow().nanos());
      fs::BlockData data = w.data;
      Status s = co_await session->Write(*fd, w.block, std::move(data));
      spans().End(span, WallNow().nanos());
      if (!s.ok()) {
        co_return s;
      }
      span = spans().Begin(SpanKind::kClose, attempt, packed,
                           WallNow().nanos());
      s = co_await session->Close(*fd);
      spans().End(span, WallNow().nanos());
      if (!s.ok()) {
        co_return s;
      }
    }
    co_return Status::Ok();
  }

  const uint64_t seed_;
  const int writers_;
  const int readers_;
  std::vector<std::unique_ptr<Server>> servers_;
  RpcProcess* client_process_ = nullptr;
  std::unique_ptr<Client> client_;
  std::vector<fs::BlockData> reader_files_;
  // Acknowledged state, for the end-of-run checks.
  uint64_t issued_txns_ = 0;
  uint64_t acked_txns_ = 0;
  std::map<std::pair<std::string, uint32_t>, fs::BlockData> acked_blocks_;
};

}  // namespace

std::unique_ptr<Workload> MakeReplfsMix(uint64_t seed, int writers,
                                        int readers) {
  return std::make_unique<ReplfsMix>(seed, writers, readers);
}

}  // namespace perfbench
