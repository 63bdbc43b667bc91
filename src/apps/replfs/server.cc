#include "src/apps/replfs/server.h"

#include <algorithm>
#include <utility>

#include "src/apps/replfs/wire.h"
#include "src/common/check.h"
#include "src/obs/metrics.h"
#include "src/txn/commit.h"

namespace circus::apps::replfs {

using circus::Status;
using circus::StatusOr;
using core::ServerCallContext;
using sim::Duration;
using sim::Task;

namespace fs = idl::ReplFs;

// How long Commit waits for the transaction's staged writes to be
// delivered by the broadcast before voting abort: below the client's
// default commit decision timeout (2 s).
constexpr Duration kStageWait = Duration::Millis(1500);

std::string BlockKey(const std::string& file, uint32_t block) {
  return "f:" + file + ":" + std::to_string(block);
}

Server::Server(core::RpcProcess* process)
    : process_(process), store_(process->host()) {
  module_ = fs::ExportReplFs(process_, this);
  writes_ = std::make_unique<txn::OrderedBroadcastServer>(
      process_, kWritesModuleName);
  CIRCUS_CHECK(writes_->module_number() ==
               static_cast<core::ModuleNumber>(module_ + kWritesModuleOffset));
  process_->SetStateProvider(module_,
                             [this] { return store_.ExternalizeState(); });
}

Task<void> Server::DeliverLoop() {
  while (true) {
    circus::Bytes payload = co_await writes_->NextDelivered();
    marshal::Reader r(payload);
    fs::WriteBlockArgs args = fs::Read_WriteBlockArgs(r);
    if (!r.AtEnd()) {
      continue;  // not a WriteBlock payload; foreign traffic is dropped
    }
    Stage(std::move(args));
  }
}

void Server::Stage(fs::WriteBlockArgs args) {
  const txn::TxnId txn = FromWire(args.txn);
  TxnState& st = staged_[txn];
  // Deliveries carry a dense per-transaction sequence. A gap means this
  // member missed earlier writes (it rejoined mid-transaction): it can
  // no longer apply the transaction faithfully and must vote abort.
  if (args.seq != st.writes.size() + 1) {
    st.damaged = true;
    return;
  }
  auto it = st.open.find(args.fd);
  if (it == st.open.end()) {
    st.damaged = true;
    return;
  }
  st.writes.push_back(
      StagedWrite{it->second, args.block, std::move(args.data)});
}

Task<StatusOr<fs::OpenFileResults>> Server::OpenFile(ServerCallContext&,
                                                     fs::OpenFileArgs args) {
  if (args.name.empty() || args.name.find(':') != std::string::npos) {
    co_return fs::Report(fs::Error::BadRequest);
  }
  TxnState& st = staged_[FromWire(args.txn)];
  const uint16_t fd = ++st.next_fd;
  st.open[fd] = args.name;
  co_return fs::OpenFileResults{fd};
}

Task<StatusOr<fs::WriteBlockResults>> Server::WriteBlock(
    ServerCallContext&, fs::WriteBlockArgs args) {
  // Clients normally propagate writes by ordered broadcast (the
  // DeliverLoop path); the direct procedure stages identically and
  // serves single-member troupes and tests.
  const txn::TxnId txn = FromWire(args.txn);
  const auto it = staged_.find(txn);
  if (it == staged_.end() || !it->second.open.contains(args.fd)) {
    co_return fs::Report(fs::Error::NotOpen);
  }
  Stage(std::move(args));
  co_return fs::WriteBlockResults{};
}

Task<StatusOr<fs::CommitResults>> Server::Commit(ServerCallContext&,
                                                 fs::CommitArgs args) {
  const txn::TxnId txn = FromWire(args.txn);
  const core::Troupe coordinator = CoordinatorTroupe(args.coordinators);
  if (coordinator.members.empty()) {
    co_return fs::Report(fs::Error::BadRequest);
  }
  // Wait (bounded) for the broadcast to deliver the transaction's
  // writes; commit order across members is enforced by the commit
  // protocol itself, not by this wait.
  const sim::TimePoint deadline =
      process_->host()->executor().now() + kStageWait;
  while (staged_[txn].writes.size() < args.writes &&
         process_->host()->executor().now() < deadline) {
    co_await process_->host()->SleepFor(Duration::Millis(20));
  }
  bool vote = false;
  {
    const TxnState& st = staged_[txn];
    vote = !st.damaged && st.writes.size() >= args.writes;
  }
  if (vote) {
    std::vector<StagedWrite> writes(
        staged_[txn].writes.begin(),
        staged_[txn].writes.begin() + args.writes);
    Status applied = co_await ApplyStaged(txn, writes);
    if (!applied.ok() || store_.Poisoned(txn)) {
      vote = false;
    }
  }
  const bool decision = co_await txn::FinishTransaction(
      process_, &store_, txn, coordinator, vote);
  staged_.erase(txn);
  if (decision) {
    ++committed_;
  } else {
    ++aborted_;
  }
  if (obs::MetricsRegistry* metrics = process_->metrics();
      metrics != nullptr) {
    metrics->GetCounter(decision ? "replfs.commits" : "replfs.aborts")
        ->Increment();
  }
  co_return fs::CommitResults{decision};
}

Task<StatusOr<fs::AbortResults>> Server::Abort(ServerCallContext&,
                                               fs::AbortArgs args) {
  const txn::TxnId txn = FromWire(args.txn);
  store_.Abort(txn);
  staged_.erase(txn);
  co_return fs::AbortResults{};
}

Task<StatusOr<fs::CloseResults>> Server::Close(ServerCallContext&,
                                               fs::CloseArgs args) {
  const auto it = staged_.find(FromWire(args.txn));
  if (it == staged_.end() || it->second.open.erase(args.fd) == 0) {
    co_return fs::Report(fs::Error::NotOpen);
  }
  co_return fs::CloseResults{};
}

Task<StatusOr<fs::ReadBlockResults>> Server::ReadBlock(
    ServerCallContext&, fs::ReadBlockArgs args) {
  const std::optional<circus::Bytes> value =
      store_.Peek(BlockKey(args.name, args.block));
  if (!value.has_value()) {
    co_return fs::Report(fs::Error::NoSuchFile);
  }
  marshal::Reader r(*value);
  fs::BlockData data = fs::Read_BlockData(r);
  if (!r.AtEnd()) {
    co_return Status(ErrorCode::kProtocolError, "corrupt block " +
                                               BlockKey(args.name, args.block));
  }
  co_return fs::ReadBlockResults{std::move(data)};
}

Task<StatusOr<fs::GetManifestResults>> Server::GetManifest(
    ServerCallContext&, fs::GetManifestArgs) {
  fs::Manifest manifest{std::in_place_index<0>, uint16_t{0}};
  const std::optional<circus::Bytes> raw = store_.Peek(kManifestKey);
  if (raw.has_value()) {
    marshal::Reader r(*raw);
    manifest = fs::Read_Manifest(r);
    if (!r.AtEnd()) {
      co_return Status(ErrorCode::kProtocolError, "corrupt manifest");
    }
  }
  co_return fs::GetManifestResults{std::move(manifest)};
}

Task<Status> Server::ApplyStaged(const txn::TxnId& txn,
                                 const std::vector<StagedWrite>& writes) {
  store_.Begin(txn);
  for (const StagedWrite& sw : writes) {
    marshal::Writer w;
    fs::Write_BlockData(w, sw.data);
    Status s =
        co_await store_.Put(txn, BlockKey(sw.file, sw.block), w.Take());
    if (!s.ok()) {
      co_return s;
    }
  }
  // Catalogue update: merge this transaction's writes into the
  // manifest. Write-locking the manifest serializes transactions that
  // would otherwise race the catalogue (2PL turns the race into a wait
  // or a deadlock-retry).
  fs::Manifest manifest{std::in_place_index<0>, uint16_t{0}};
  StatusOr<circus::Bytes> raw = co_await store_.Get(txn, kManifestKey);
  if (raw.ok()) {
    marshal::Reader r(*raw);
    manifest = fs::Read_Manifest(r);
    if (!r.AtEnd()) {
      co_return Status(ErrorCode::kProtocolError, "corrupt manifest");
    }
  } else if (raw.status().code() != ErrorCode::kNotFound) {
    co_return raw.status();
  }
  std::vector<fs::FileInfo> files;
  if (manifest.index() == 1) {
    files = std::move(std::get<1>(manifest));
  }
  for (const StagedWrite& sw : writes) {
    auto it = std::find_if(
        files.begin(), files.end(),
        [&sw](const fs::FileInfo& f) { return f.name == sw.file; });
    if (it == files.end()) {
      files.push_back(fs::FileInfo{sw.file, 0, {}});
      it = std::prev(files.end());
    }
    it->blocks = std::max(it->blocks, sw.block + 1);
    it->extents.push_back(
        fs::Extent{sw.block, static_cast<uint32_t>(sw.data.size())});
    if (it->extents.size() > kManifestExtentCap) {
      it->extents.erase(it->extents.begin(),
                        it->extents.end() - kManifestExtentCap);
    }
  }
  std::sort(files.begin(), files.end(),
            [](const fs::FileInfo& a, const fs::FileInfo& b) {
              return a.name < b.name;
            });
  marshal::Writer w;
  const fs::Manifest updated{std::in_place_index<1>, std::move(files)};
  fs::Write_Manifest(w, updated);
  co_return co_await store_.Put(txn, kManifestKey, w.Take());
}

}  // namespace circus::apps::replfs
