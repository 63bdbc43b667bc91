#include "src/txn/commit.h"

#include <utility>

#include "src/binding/codec.h"
#include "src/common/log.h"
#include "src/obs/bus.h"
#include "src/obs/metrics.h"

namespace circus::txn {

using circus::Status;
using circus::StatusOr;
using core::ServerCallContext;
using core::Troupe;
using sim::Duration;
using sim::Task;

namespace {

// Publishes a transaction-protocol event keyed by the transaction's
// logical thread, so commit traffic lands in the same trace tree as the
// calls that ran the transaction body. `detail()` formats the event's
// text; it runs only when the bus has a subscriber.
template <typename Detail>
void PublishTxnEvent(core::RpcProcess* process, obs::EventKind kind,
                     const TxnId& txn, uint64_t a, Detail detail) {
  obs::EventBus* bus = process->event_bus();
  if (bus == nullptr || !bus->active()) {
    return;
  }
  obs::Event e;
  e.kind = kind;
  e.host = static_cast<uint32_t>(process->host()->id());
  const net::NetAddress self = process->process_address();
  e.origin = obs::PackAddress(self.host, self.port);
  e.thread = obs::ThreadRef{txn.thread.machine, txn.thread.port,
                            txn.thread.local};
  e.a = a;
  e.c = txn.num;
  e.detail = detail();
  bus->Publish(std::move(e));
}

}  // namespace

// ---------------------------------------------------------------------
// CommitCoordinator

CommitCoordinator::CommitCoordinator(core::RpcProcess* process)
    : process_(process) {
  module_ = process_->ExportModule("commit-coordinator");
  process_->ExportProcedure(
      module_, kReadyToCommit,
      [this](ServerCallContext& ctx,
             const circus::Bytes& args) -> Task<StatusOr<circus::Bytes>> {
        co_return co_await HandleReadyToCommit(ctx, args);
      });
}

void CommitCoordinator::Begin(const TxnId& txn, int expected_votes,
                              Duration decision_timeout) {
  auto pending = std::make_shared<Pending>(process_->host());
  pending->expected = expected_votes;
  pending->timeout = decision_timeout;
  pending_[txn] = std::move(pending);
}

Task<StatusOr<circus::Bytes>> CommitCoordinator::HandleReadyToCommit(
    ServerCallContext&, const circus::Bytes& args) {
  marshal::Reader r(args);
  const TxnId txn = TxnId::Read(r);
  const bool vote = r.ReadBool();
  if (!r.AtEnd()) {
    co_return Status(ErrorCode::kProtocolError, "bad ready_to_commit args");
  }
  auto it = pending_.find(txn);
  if (it == pending_.end()) {
    // Unknown transaction (e.g. the client already gave up): abort.
    marshal::Writer w;
    w.WriteBool(false);
    co_return w.Take();
  }
  std::shared_ptr<Pending> p = it->second;
  ++p->votes;
  if (!vote) {
    p->all_true = false;
  }
  if (!p->decision.has_value()) {
    if (!p->all_true) {
      // Any abort vote decides immediately.
      p->decision = false;
      p->decided.Notify();
      PublishTxnEvent(process_, obs::EventKind::kTxnDecision, txn, 0,
                      [&] { return txn.ToString() + " abort-vote"; });
    } else if (p->votes >= p->expected) {
      // Every member of the server troupe is ready: commit.
      p->decision = true;
      p->decided.Notify();
      PublishTxnEvent(process_, obs::EventKind::kTxnDecision, txn, 1,
                      [&] { return txn.ToString(); });
    }
  }
  if (!p->decision.has_value()) {
    // Wait for the remaining members -- answering none of them until all
    // are ready is precisely what turns divergent commit orders into a
    // deadlock (Theorem 5.1). The timeout is the deadlock breaker.
    const uint64_t timer = process_->host()->executor().ScheduleAfter(
        p->timeout, [p, txn, this] {
          if (!p->decision.has_value()) {
            p->decision = false;  // presume deadlock; abort
            ++timeouts_;
            if (obs::MetricsRegistry* metrics = process_->metrics();
                metrics != nullptr) {
              metrics->GetCounter("txn.decision_timeouts")->Increment();
            }
            PublishTxnEvent(
                process_, obs::EventKind::kTxnDecision, txn, 0,
                [&] { return txn.ToString() + " deadlock-timeout"; });
            p->decided.Notify();
          }
        });
    co_await p->decided.Wait();
    process_->host()->executor().Cancel(timer);
  }
  marshal::Writer w;
  w.WriteBool(*p->decision);
  co_return w.Take();
}

// ---------------------------------------------------------------------
// TransactionalServer

TransactionalServer::TransactionalServer(core::RpcProcess* process,
                                         const std::string& module_name)
    : process_(process),
      store_(std::make_unique<TxnStore>(process->host())) {
  module_ = process_->ExportModule(module_name);
  process_->ExportProcedure(
      module_, kFinishTransaction,
      [this](ServerCallContext& ctx,
             const circus::Bytes& args) -> Task<StatusOr<circus::Bytes>> {
        co_return co_await HandleFinish(ctx, args);
      });
  process_->ExportProcedure(
      module_, kAbortTransaction,
      [this](ServerCallContext&,
             const circus::Bytes& args) -> Task<StatusOr<circus::Bytes>> {
        marshal::Reader r(args);
        const TxnId txn = TxnId::Read(r);
        if (!r.AtEnd()) {
          co_return Status(ErrorCode::kProtocolError, "bad abort args");
        }
        store_->Abort(txn);
        co_return circus::Bytes{};
      });
  process_->SetStateProvider(module_,
                             [this] { return store_->ExternalizeState(); });
}

Task<StatusOr<circus::Bytes>> TransactionalServer::HandleFinish(
    ServerCallContext& /*ctx*/, const circus::Bytes& args) {
  marshal::Reader r(args);
  const TxnId txn = TxnId::Read(r);
  const Troupe coordinator = binding::ReadTroupe(r);
  if (!r.AtEnd() || coordinator.members.empty()) {
    co_return Status(ErrorCode::kProtocolError, "bad finish args");
  }
  // Default vote: ready to commit unless one of the transaction's
  // operations failed here (deadlock / lock timeout poisoned it).
  const bool vote =
      vote_hook_ ? vote_hook_(txn) : !store_->Poisoned(txn);
  const bool decision = co_await FinishTransaction(
      process_, store_.get(), txn, coordinator, vote);
  marshal::Writer out;
  out.WriteBool(decision);
  co_return out.Take();
}

// ---------------------------------------------------------------------
// FinishTransaction

Task<bool> FinishTransaction(core::RpcProcess* process, TxnStore* store,
                             const TxnId& txn, const Troupe& coordinator,
                             bool vote) {
  PublishTxnEvent(process, obs::EventKind::kTxnVote, txn, vote ? 1 : 0,
                  [&] { return txn.ToString(); });
  // Call ready_to_commit back at the client troupe. The roles of client
  // and server are reversed here (Section 5.3). Each server troupe
  // member makes this call-back on a thread of its own: votes are
  // per-member facts, not replicated computation.
  marshal::Writer w;
  txn.Write(w);
  w.WriteBool(vote);
  core::CallOptions opts;
  opts.as_unreplicated_client = true;
  StatusOr<circus::Bytes> reply = co_await process->Call(
      process->NewRootThread(), coordinator,
      coordinator.members.front().module, kReadyToCommit, w.Take(), opts);
  bool decision = false;
  if (reply.ok()) {
    marshal::Reader rr(*reply);
    decision = rr.ReadBool();
    if (!rr.ok()) {
      decision = false;
    }
  }
  if (decision) {
    Status commit = store->Commit(txn);
    if (!commit.ok()) {
      CIRCUS_LOG(LogLevel::kWarning)
          << "commit of " << txn.ToString()
          << " failed locally: " << commit.ToString();
      decision = false;
    }
  }
  if (!decision) {
    store->Abort(txn);
  }
  co_return decision;
}

// ---------------------------------------------------------------------
// RunTransaction

Task<Status> RunTransaction(core::RpcProcess* process,
                            CommitCoordinator* coordinator,
                            core::ThreadId thread, int server_members,
                            TransactionSteps& steps,
                            const TransactionBody& body,
                            const RunTransactionOptions& options) {
  Status last(ErrorCode::kAborted, "transaction never attempted");
  obs::MetricsRegistry* metrics = process->metrics();
  obs::Histogram* commit_ms_metric =
      metrics != nullptr ? metrics->GetHistogram("txn.commit_ms") : nullptr;
  obs::Counter* restarts_metric =
      metrics != nullptr ? metrics->GetCounter("txn.deadlock_restarts")
                         : nullptr;
  obs::Counter* aborts_metric =
      metrics != nullptr ? metrics->GetCounter("txn.aborts") : nullptr;
  const sim::TimePoint txn_start = process->host()->executor().now();
  const Troupe coordinator_troupe = options.coordinator_troupe.value_or(
      Troupe{.id = {}, .members = {coordinator->address()}});
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    const TxnId txn{thread, coordinator->NextTxnNum(thread)};
    coordinator->Begin(txn, server_members, options.decision_timeout);
    last = co_await body(txn);
    bool retryable = false;
    if (!last.ok()) {
      // Abort at the servers, then decide whether to retry.
      co_await steps.Abort(txn);
      retryable = last.code() == ErrorCode::kDeadlock ||
                  last.code() == ErrorCode::kAborted;
    } else {
      // Drive the troupe commit protocol.
      StatusOr<bool> committed =
          co_await steps.Finish(txn, coordinator_troupe);
      if (committed.ok() && *committed) {
        if (commit_ms_metric != nullptr) {
          commit_ms_metric->Observe(
              static_cast<double>(
                  (process->host()->executor().now() - txn_start).nanos()) /
              1e6);
        }
        PublishTxnEvent(process, obs::EventKind::kTxnResolved, txn, 1,
                        [&] { return txn.ToString(); });
        co_return Status::Ok();
      }
      last = committed.ok()
                 ? Status(ErrorCode::kAborted,
                          "troupe commit protocol aborted " + txn.ToString())
                 : committed.status();
      retryable = last.code() == ErrorCode::kDeadlock ||
                  last.code() == ErrorCode::kAborted ||
                  last.code() == ErrorCode::kDisagreement;
    }
    if (!retryable) {
      if (aborts_metric != nullptr) {
        aborts_metric->Increment();
      }
      PublishTxnEvent(process, obs::EventKind::kTxnResolved, txn, 0,
                      [&] { return last.ToString(); });
      co_return last;  // a real error; do not retry
    }
    if (restarts_metric != nullptr) {
      restarts_metric->Increment();
    }
    PublishTxnEvent(process, obs::EventKind::kTxnRetry, txn,
                    static_cast<uint64_t>(attempt) + 1,
                    [&] { return last.ToString(); });
    // Binary exponential back-off before retrying (Section 5.3.1).
    Duration delay = options.backoff_base * (1LL << std::min(attempt, 10));
    if (options.rng != nullptr) {
      delay = Duration::Nanos(static_cast<int64_t>(
          delay.nanos() * (0.5 + options.rng->UniformDouble())));
    }
    co_await process->host()->SleepFor(delay);
  }
  if (aborts_metric != nullptr) {
    aborts_metric->Increment();
  }
  PublishTxnEvent(process, obs::EventKind::kTxnResolved, TxnId{thread, 0},
                  0, [] { return "attempts exhausted"; });
  co_return last;
}

namespace {

// A TransactionalServer module's reserved procedures as the steps of
// RunTransaction.
class ServerModuleSteps final : public TransactionSteps {
 public:
  ServerModuleSteps(core::RpcProcess* process, core::ThreadId thread,
                    const Troupe& server, core::ModuleNumber module)
      : process_(process), thread_(thread), server_(server),
        module_(module) {}

  Task<> Abort(const TxnId& txn) override {
    marshal::Writer w;
    txn.Write(w);
    co_await process_->Call(thread_, server_, module_, kAbortTransaction,
                            w.Take());
  }

  Task<StatusOr<bool>> Finish(const TxnId& txn,
                              const Troupe& coordinators) override {
    marshal::Writer w;
    txn.Write(w);
    binding::WriteTroupe(w, coordinators);
    StatusOr<circus::Bytes> r = co_await process_->Call(
        thread_, server_, module_, kFinishTransaction, w.Take());
    if (!r.ok()) {
      co_return r.status();
    }
    marshal::Reader rr(*r);
    const bool committed = rr.ReadBool();
    co_return rr.ok() && committed;
  }

 private:
  core::RpcProcess* process_;
  core::ThreadId thread_;
  const Troupe& server_;
  core::ModuleNumber module_;
};

}  // namespace

Task<Status> RunTransaction(core::RpcProcess* process,
                            CommitCoordinator* coordinator,
                            core::ThreadId thread, const Troupe& server,
                            core::ModuleNumber server_module,
                            const TransactionBody& body,
                            const RunTransactionOptions& options) {
  ServerModuleSteps steps(process, thread, server, server_module);
  co_return co_await RunTransaction(
      process, coordinator, thread, static_cast<int>(server.members.size()),
      steps, body, options);
}

}  // namespace circus::txn
