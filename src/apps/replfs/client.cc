#include "src/apps/replfs/client.h"

#include <optional>
#include <utility>

#include "src/apps/replfs/server.h"
#include "src/apps/replfs/wire.h"
#include "src/txn/ordered_broadcast.h"

namespace circus::apps::replfs {

using circus::Status;
using circus::StatusOr;
using sim::Task;

namespace fs = idl::ReplFs;

namespace {

// Broadcast message ids must be unique per message and identical
// across replicated client members: derive them from the transaction
// identity (itself deterministic across members) and the write's
// per-transaction sequence number, mixed through a splitmix64 round.
uint64_t WriteMsgId(const txn::TxnId& txn, uint32_t seq) {
  uint64_t x = (static_cast<uint64_t>(txn.thread.machine) << 32) |
               (static_cast<uint64_t>(txn.thread.port) << 16) |
               txn.thread.local;
  x ^= (static_cast<uint64_t>(txn.num) << 32) | seq;
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Task<StatusOr<uint16_t>> Session::Open(const std::string& name) {
  const fs::Txn wire = ToWire(txn_);
  StatusOr<fs::OpenFileResults> r =
      co_await client_->stub_.OpenFile(thread_, wire, name);
  if (!r.ok()) {
    co_return r.status();
  }
  co_return r->fd;
}

Task<Status> Session::Write(uint16_t fd, uint32_t block,
                            fs::BlockData data) {
  const uint32_t seq = ++writes_;
  fs::WriteBlockArgs args;
  args.txn = ToWire(txn_);
  args.fd = fd;
  args.seq = seq;
  args.block = block;
  args.data = std::move(data);
  marshal::Writer w;
  fs::Write_WriteBlockArgs(w, args);
  const core::Troupe& writes_troupe = client_->writes_troupe_;
  if (writes_troupe.members.empty()) {
    co_return Status(ErrorCode::kFailedPrecondition, "client not bound");
  }
  co_return co_await txn::AtomicBroadcast(
      client_->process_, thread_, writes_troupe,
      writes_troupe.members.front().module, WriteMsgId(txn_, seq),
      w.Take());
}

Task<Status> Session::Close(uint16_t fd) {
  const fs::Txn wire = ToWire(txn_);
  StatusOr<fs::CloseResults> r =
      co_await client_->stub_.Close(thread_, wire, fd);
  co_return r.status();
}

Client::Client(core::RpcProcess* process)
    : process_(process), stub_(process), coordinator_(process) {}

void Client::Bind(core::Troupe troupe) {
  writes_troupe_ = troupe;
  for (core::ModuleAddress& m : writes_troupe_.members) {
    m.module = static_cast<core::ModuleNumber>(m.module +
                                               kWritesModuleOffset);
  }
  troupe_ = std::move(troupe);
  stub_.Bind(troupe_);
}

// Run()'s transaction steps: each attempt stages through a fresh
// Session, whose write count travels in the attempt's Commit call so
// the servers know how many broadcast deliveries to await.
class Client::Attempts final : public txn::TransactionSteps {
 public:
  Attempts(Client* client, core::ThreadId thread, const Body& body)
      : client_(client), thread_(thread), body_(body) {}

  Task<Status> Stage(const txn::TxnId& txn) {
    session_ = Session(client_, thread_, txn);
    return body_(*session_);
  }

  Task<> Abort(const txn::TxnId& txn) override {
    const fs::Txn wire = ToWire(txn);
    co_await client_->stub_.Abort(thread_, wire);
  }

  Task<StatusOr<bool>> Finish(const txn::TxnId& txn,
                              const core::Troupe& coordinators) override {
    const fs::Txn wire = ToWire(txn);
    const fs::Coordinators coords = ToWire(coordinators);
    StatusOr<fs::CommitResults> r = co_await client_->stub_.Commit(
        thread_, wire, session_->writes(), coords);
    if (!r.ok()) {
      co_return r.status();
    }
    co_return r->committed;
  }

 private:
  Client* client_;
  core::ThreadId thread_;
  const Body& body_;
  std::optional<Session> session_;
};

Task<Status> Client::Run(core::ThreadId thread, const Body& body,
                         txn::RunTransactionOptions options) {
  Attempts attempts(this, thread, body);
  // A named local: a capturing lambda must not become a std::function
  // inside a co_await statement.
  const txn::TransactionBody stage = [&attempts](const txn::TxnId& txn) {
    return attempts.Stage(txn);
  };
  co_return co_await txn::RunTransaction(
      process_, &coordinator_, thread,
      static_cast<int>(troupe_.members.size()), attempts, stage, options);
}

Task<StatusOr<fs::BlockData>> Client::ReadBlock(core::ThreadId thread,
                                                const std::string& name,
                                                uint32_t block) {
  StatusOr<fs::ReadBlockResults> r =
      co_await stub_.ReadBlock(thread, name, block);
  if (!r.ok()) {
    co_return r.status();
  }
  co_return std::move(r->data);
}

Task<StatusOr<fs::Manifest>> Client::GetManifest(core::ThreadId thread) {
  StatusOr<fs::GetManifestResults> r = co_await stub_.GetManifest(thread);
  if (!r.ok()) {
    co_return r.status();
  }
  co_return std::move(r->manifest);
}

}  // namespace circus::apps::replfs
