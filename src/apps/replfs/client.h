// The replfs client library: wraps the stub-generated ReplFsClient in
// the transactional session protocol. A transaction body opens files,
// stages block writes (ordered atomic broadcast to the troupe's writes
// module), and commits; Run() runs on txn::RunTransaction -- the one
// Section 5.3 client half: fresh TxnId per attempt, commit coordinator
// bookkeeping, and retry with binary exponential back-off on
// deadlock-induced aborts -- with the attempt's abort and commit spoken
// through the generated stubs.
#ifndef SRC_APPS_REPLFS_CLIENT_H_
#define SRC_APPS_REPLFS_CLIENT_H_

#include <functional>
#include <string>

#include "gen/apps/replfs.h"
#include "src/core/process.h"
#include "src/txn/commit.h"
#include "src/txn/types.h"

namespace circus::apps::replfs {

class Client;

// One transaction attempt's file session, passed to the Run() body.
// Writes count per-transaction sequence numbers; the count travels in
// the Commit call so servers know how many broadcast deliveries to
// await.
class Session {
 public:
  const txn::TxnId& txn() const { return txn_; }
  uint32_t writes() const { return writes_; }

  sim::Task<StatusOr<uint16_t>> Open(const std::string& name);
  sim::Task<Status> Write(uint16_t fd, uint32_t block,
                          idl::ReplFs::BlockData data);
  sim::Task<Status> Close(uint16_t fd);

 private:
  friend class Client;
  Session(Client* client, core::ThreadId thread, txn::TxnId txn)
      : client_(client), thread_(thread), txn_(txn) {}

  Client* client_;
  core::ThreadId thread_;
  txn::TxnId txn_;
  uint32_t writes_ = 0;
};

class Client {
 public:
  explicit Client(core::RpcProcess* process);

  // Binds to the replfs server troupe (the ReplFs modules); the writes
  // broadcast troupe is derived by module-number offset.
  void Bind(core::Troupe troupe);

  // The body stages operations through the session and returns Ok to
  // request commit or an error to abort. NOTE: callers inside
  // coroutines must hoist the body into a named local before
  // co_awaiting Run() (see the capturing-lambda rule in CLAUDE.md).
  using Body = std::function<sim::Task<Status>(Session&)>;

  // Runs `body` as a replicated transaction; returns Ok once an
  // attempt commits at every troupe member.
  sim::Task<Status> Run(core::ThreadId thread, const Body& body,
                        txn::RunTransactionOptions options = {});

  // Committed-state reads (unanimous collation).
  sim::Task<StatusOr<idl::ReplFs::BlockData>> ReadBlock(
      core::ThreadId thread, const std::string& name, uint32_t block);
  sim::Task<StatusOr<idl::ReplFs::Manifest>> GetManifest(
      core::ThreadId thread);

 private:
  friend class Session;
  class Attempts;

  core::RpcProcess* process_;
  idl::ReplFs::ReplFsClient stub_;
  txn::CommitCoordinator coordinator_;
  core::Troupe troupe_;
  core::Troupe writes_troupe_;
};

}  // namespace circus::apps::replfs

#endif  // SRC_APPS_REPLFS_CLIENT_H_
