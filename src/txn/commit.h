// The troupe commit protocol (Section 5.3): optimistic and generic
// two-phase commit for replicated transactions, with no communication
// among troupe members.
//
// When a server troupe member is ready to commit a transaction it calls
// ready_to_commit(vote) *back at the client troupe* (roles reversed: a
// call-back protocol). The client-side CommitCoordinator answers no
// member until every member of the server troupe has called; if all vote
// true the answer is true (commit), otherwise false (abort). Theorem 5.1:
// members attempting to commit transactions in different orders block in
// their call-backs forever — the protocol transforms divergent
// serialization orders into a deadlock, which is then broken by the
// coordinator's decision timeout and retried with binary exponential
// back-off (Section 5.3.1).
#ifndef SRC_TXN_COMMIT_H_
#define SRC_TXN_COMMIT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/core/process.h"
#include "src/sim/notification.h"
#include "src/sim/random.h"
#include "src/txn/store.h"
#include "src/txn/types.h"

namespace circus::txn {

// Procedure numbers of the coordinator module exported by clients.
enum CoordinatorProcedure : core::ProcedureNumber {
  kReadyToCommit = 0,  // (txn, vote) -> decision
};

// Reserved procedure numbers a TransactionalServer adds to its module.
enum TransactionProcedure : core::ProcedureNumber {
  kFinishTransaction = 0xFF00,  // (txn, coordinator troupe) -> decision
  kAbortTransaction = 0xFF01,   // (txn) -> ()
};

// Client-side commit coordinator (one per client troupe member; with a
// replicated client, every member runs one and reaches the same
// decision).
class CommitCoordinator {
 public:
  explicit CommitCoordinator(core::RpcProcess* process);

  core::ModuleNumber module_number() const { return module_; }
  core::ModuleAddress address() const {
    return process_->module_address(module_);
  }

  // Declares a transaction: votes from `expected_votes` server troupe
  // members will arrive; if they have not all arrived `decision_timeout`
  // after the first waiter started waiting, the decision is abort
  // (breaking any cross-member serialization deadlock).
  void Begin(const TxnId& txn, int expected_votes,
             sim::Duration decision_timeout);

  // Deterministic per-thread transaction numbering: replicated client
  // members derive identical TxnIds for the same logical transaction.
  uint32_t NextTxnNum(const core::ThreadId& thread) {
    return ++txn_nums_[thread];
  }

  // Test/diagnostic access.
  uint64_t timeouts() const { return timeouts_; }

 private:
  struct Pending {
    explicit Pending(sim::Host* host) : decided(host) {}
    int expected = 0;
    int votes = 0;
    bool all_true = true;
    std::optional<bool> decision;
    sim::Notification decided;
    sim::Duration timeout;
  };

  sim::Task<circus::StatusOr<circus::Bytes>> HandleReadyToCommit(
      core::ServerCallContext& ctx, const circus::Bytes& args);

  core::RpcProcess* process_;
  core::ModuleNumber module_;
  std::map<TxnId, std::shared_ptr<Pending>> pending_;
  std::map<core::ThreadId, uint32_t> txn_nums_;
  uint64_t timeouts_ = 0;
};

// Server-side transactional module: a TxnStore plus the standard finish
// and abort procedures, wired to the troupe commit protocol. User
// procedures operate on store() within the transaction carried in their
// arguments.
class TransactionalServer {
 public:
  TransactionalServer(core::RpcProcess* process,
                      const std::string& module_name);

  core::RpcProcess* process() const { return process_; }
  core::ModuleNumber module_number() const { return module_; }
  TxnStore& store() { return *store_; }

  // Optional application veto: return false to vote abort.
  void SetVoteHook(std::function<bool(const TxnId&)> hook) {
    vote_hook_ = std::move(hook);
  }

  // Registers a user procedure on the transactional module.
  void ExportProcedure(core::ProcedureNumber number,
                       core::ProcedureHandler handler) {
    process_->ExportProcedure(module_, number, std::move(handler));
  }

 private:
  sim::Task<circus::StatusOr<circus::Bytes>> HandleFinish(
      core::ServerCallContext& ctx, const circus::Bytes& args);

  core::RpcProcess* process_;
  core::ModuleNumber module_;
  std::unique_ptr<TxnStore> store_;
  std::function<bool(const TxnId&)> vote_hook_;
};

// The server half of the commit protocol, factored out of
// TransactionalServer so that applications exporting their own modules
// (e.g. stub-generated ones under src/apps/) can participate in troupe
// commit without the reserved kFinishTransaction procedure: publishes
// the member's vote, calls ready_to_commit back at the client's
// coordinator troupe, applies the joint decision to `store` (commit on
// true -- downgraded to abort if the local commit fails -- abort on
// false), and returns the decision.
sim::Task<bool> FinishTransaction(core::RpcProcess* process,
                                  TxnStore* store, const TxnId& txn,
                                  const core::Troupe& coordinator,
                                  bool vote);

struct RunTransactionOptions {
  int max_attempts = 8;
  sim::Duration decision_timeout = sim::Duration::Seconds(2);
  sim::Duration backoff_base = sim::Duration::Millis(50);
  sim::Rng* rng = nullptr;  // jitter source; deterministic default if null
  // With a replicated client troupe, every member must name the same
  // coordinator troupe (one coordinator per client member) in the finish
  // call; unset means "just this process's coordinator".
  std::optional<core::Troupe> coordinator_troupe;
};

// The body makes replicated calls against the server troupe, passing the
// TxnId in its arguments; it returns Ok to request commit or an error to
// abort.
using TransactionBody =
    std::function<sim::Task<circus::Status>(const TxnId&)>;

// The two server-facing steps of a transaction attempt. A
// TransactionalServer's reserved kAbortTransaction / kFinishTransaction
// procedures are one implementation; an application exporting its own
// stub-generated module (apps::replfs) supplies another.
class TransactionSteps {
 public:
  virtual ~TransactionSteps() = default;

  // Discards the attempt's effects at every server troupe member.
  virtual sim::Task<> Abort(const TxnId& txn) = 0;

  // Asks the server troupe to finish the attempt through the troupe
  // commit protocol, calling ready_to_commit back at `coordinators`;
  // returns the joint decision (true = committed at every member).
  virtual sim::Task<circus::StatusOr<bool>> Finish(
      const TxnId& txn, const core::Troupe& coordinators) = 0;
};

// Runs `body` as a replicated transaction against a server troupe of
// `server_members` members: begins a transaction, runs the body, finishes
// or aborts it through `steps`, and on deadlock-induced abort retries
// with binary exponential back-off. Returns Ok once a transaction
// instance commits at all members.
//
// Reference parameters: the returned Task must be co_awaited within the
// full expression of the RunTransaction(...) call (the usual pattern),
// so that argument temporaries outlive the coroutine.
sim::Task<circus::Status> RunTransaction(
    core::RpcProcess* process, CommitCoordinator* coordinator,
    core::ThreadId thread, int server_members, TransactionSteps& steps,
    const TransactionBody& body, const RunTransactionOptions& options = {});

// The same, against a TransactionalServer module: the steps are its
// kAbortTransaction and kFinishTransaction procedures.
sim::Task<circus::Status> RunTransaction(
    core::RpcProcess* process, CommitCoordinator* coordinator,
    core::ThreadId thread, const core::Troupe& server,
    core::ModuleNumber server_module, const TransactionBody& body,
    const RunTransactionOptions& options = {});

}  // namespace circus::txn

#endif  // SRC_TXN_COMMIT_H_
