// One replfs server troupe member: the stub-generated ReplFs module
// (replfs.idl) backed by a transactional store, plus an ordered
// broadcast module through which clients propagate block writes so that
// concurrent transactions stage in the same order at every member.
//
// Write path: OpenFile allocates a per-transaction fd (deterministic,
// so every member hands back the same number), WriteBlock deliveries
// stage in a per-transaction buffer, and Commit waits for the staged
// writes to arrive, applies them to the TxnStore under the transaction,
// and then drives the member's half of the Section 5.3 troupe commit
// protocol via txn::FinishTransaction. Reads (ReadBlock, GetManifest)
// serve committed state only and collate unanimously at the client.
//
// A SIGKILLed member rejoins through the usual get_state path: the
// ReplFs module's state provider externalizes the TxnStore, and the
// rejoining process internalizes it. In-flight transactions are NOT in
// the snapshot -- a rejoined member votes abort for them (missing
// staged writes show up as a sequence gap) and the client's retry, a
// fresh transaction, lands on the healed troupe.
#ifndef SRC_APPS_REPLFS_SERVER_H_
#define SRC_APPS_REPLFS_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/apps/replfs.h"
#include "src/core/process.h"
#include "src/txn/ordered_broadcast.h"
#include "src/txn/store.h"
#include "src/txn/types.h"

namespace circus::apps::replfs {

// Module layout of a replfs member: the broadcast module is exported
// immediately after the ReplFs module, so clients can derive the
// broadcast troupe from the bound ReplFs troupe by offsetting the
// member module numbers.
inline constexpr core::ModuleNumber kWritesModuleOffset = 1;
inline constexpr const char* kWritesModuleName = "ReplFs-writes";

// The store key holding the marshaled Manifest catalogue.
inline constexpr const char* kManifestKey = "manifest";

// Extents per file retained in the manifest (most recent first to go).
inline constexpr size_t kManifestExtentCap = 8;

class Server : public idl::ReplFs::ReplFsHandler {
 public:
  explicit Server(core::RpcProcess* process);

  core::RpcProcess* process() const { return process_; }
  core::ModuleNumber module_number() const { return module_; }
  core::ModuleNumber writes_module_number() const {
    return writes_->module_number();
  }
  txn::TxnStore& store() { return store_; }

  // Consumes ordered-broadcast write deliveries forever; spawn on the
  // executor that runs the process (the harness owns the lifetime, as
  // with OrderedBroadcastServer consumers elsewhere).
  sim::Task<void> DeliverLoop();

  // ReplFsHandler:
  sim::Task<StatusOr<idl::ReplFs::OpenFileResults>> OpenFile(
      core::ServerCallContext& ctx, idl::ReplFs::OpenFileArgs args) override;
  sim::Task<StatusOr<idl::ReplFs::WriteBlockResults>> WriteBlock(
      core::ServerCallContext& ctx,
      idl::ReplFs::WriteBlockArgs args) override;
  sim::Task<StatusOr<idl::ReplFs::CommitResults>> Commit(
      core::ServerCallContext& ctx, idl::ReplFs::CommitArgs args) override;
  sim::Task<StatusOr<idl::ReplFs::AbortResults>> Abort(
      core::ServerCallContext& ctx, idl::ReplFs::AbortArgs args) override;
  sim::Task<StatusOr<idl::ReplFs::CloseResults>> Close(
      core::ServerCallContext& ctx, idl::ReplFs::CloseArgs args) override;
  sim::Task<StatusOr<idl::ReplFs::ReadBlockResults>> ReadBlock(
      core::ServerCallContext& ctx,
      idl::ReplFs::ReadBlockArgs args) override;
  sim::Task<StatusOr<idl::ReplFs::GetManifestResults>> GetManifest(
      core::ServerCallContext& ctx,
      idl::ReplFs::GetManifestArgs args) override;

  // Diagnostics.
  size_t staged_transactions() const { return staged_.size(); }
  uint64_t committed_transactions() const { return committed_; }
  uint64_t aborted_transactions() const { return aborted_; }

 private:
  struct StagedWrite {
    std::string file;
    uint32_t block = 0;
    idl::ReplFs::BlockData data;
  };
  struct TxnState {
    uint16_t next_fd = 0;
    std::map<uint16_t, std::string> open;  // fd -> file name
    std::vector<StagedWrite> writes;       // broadcast delivery order
    // Set when a delivery referenced an unknown fd or skipped a
    // sequence number (e.g. this member rejoined mid-transaction and
    // missed earlier deliveries): the member must vote abort.
    bool damaged = false;
  };

  // Stages one WriteBlock delivery (broadcast payload or direct call).
  void Stage(idl::ReplFs::WriteBlockArgs args);
  // Applies the staged writes and the manifest update under `txn`.
  sim::Task<Status> ApplyStaged(const txn::TxnId& txn,
                                const std::vector<StagedWrite>& writes);

  core::RpcProcess* process_;
  core::ModuleNumber module_;
  txn::TxnStore store_;
  std::unique_ptr<txn::OrderedBroadcastServer> writes_;
  std::map<txn::TxnId, TxnState> staged_;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
};

// The store key of one file block.
std::string BlockKey(const std::string& file, uint32_t block);

}  // namespace circus::apps::replfs

#endif  // SRC_APPS_REPLFS_SERVER_H_
