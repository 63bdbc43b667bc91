// Lightweight transactions (Section 5.2): atomic, serializable
// transactions over a volatile in-memory object store. Because troupes
// mask partial failures, no stable storage, intention lists, or crash
// recovery machinery is needed — a total failure loses the store, which
// is exactly the paper's trade (replication replaces stable storage,
// Section 3.5.1).
//
// Concurrency control is strict two-phase locking with read/write locks,
// lock upgrade, and local waits-for deadlock detection (a cycle aborts
// the requester with kDeadlock). Transactions may be nested
// (Section 2.3.2): a subtransaction's tentative updates merge into its
// parent on commit and vanish on abort; locks acquired by the child pass
// to the parent on commit (Moss-style inheritance).
#ifndef SRC_TXN_STORE_H_
#define SRC_TXN_STORE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/sim/channel.h"
#include "src/sim/host.h"
#include "src/sim/task.h"
#include "src/txn/types.h"

namespace circus::txn {

class TxnStore {
 public:
  explicit TxnStore(sim::Host* host) : host_(host) {}
  TxnStore(const TxnStore&) = delete;
  TxnStore& operator=(const TxnStore&) = delete;

  sim::Host* host() const { return host_; }

  // --- transaction lifecycle ---
  // Begins a top-level transaction. Idempotent.
  void Begin(const TxnId& txn);
  // Begins `child` as a nested transaction of `parent`.
  void BeginNested(const TxnId& child, const TxnId& parent);

  // Applies the transaction's tentative updates. For a nested
  // transaction the updates and locks move to the parent; for a
  // top-level transaction they become permanent and the locks release.
  circus::Status Commit(const TxnId& txn);
  // Discards tentative updates (and aborts any active subtransactions).
  void Abort(const TxnId& txn);

  // --- operations (acquire locks; may wait; kDeadlock on a cycle) ---
  sim::Task<circus::StatusOr<circus::Bytes>> Get(const TxnId& txn,
                                                 const std::string& key);
  sim::Task<circus::Status> Put(const TxnId& txn, const std::string& key,
                                circus::Bytes value);

  // --- non-transactional access (state transfer, tests) ---
  std::optional<circus::Bytes> Peek(const std::string& key) const;
  void Poke(const std::string& key, circus::Bytes value);
  circus::Bytes ExternalizeState() const;  // Section 6.4.1 get_state
  void InternalizeState(const circus::Bytes& raw);
  size_t size() const { return base_.size(); }

  // Number of transactions aborted by deadlock detection.
  uint64_t deadlock_aborts() const { return deadlock_aborts_; }
  // Lock waits that expired (distributed deadlock presumed).
  uint64_t lock_timeouts() const { return lock_timeouts_; }
  size_t active_transactions() const { return txns_.size(); }

  // A transaction is poisoned once any of its operations failed (lock
  // timeout or deadlock); a troupe member must vote abort for it in the
  // commit protocol.
  bool Poisoned(const TxnId& txn) const { return poisoned_.contains(txn); }

  // Local waits-for cycles are detected instantly; cycles spanning
  // several troupe members are invisible locally and are broken by this
  // lock-wait timeout instead (the distributed-deadlock half of
  // Section 5.3's "transform divergent orders into deadlocks, then
  // detect and retry").
  void set_lock_timeout(sim::Duration d) { lock_timeout_ = d; }

 private:
  enum class LockMode { kRead, kWrite };

  struct Lock {
    std::set<TxnId> readers;
    std::optional<TxnId> writer;
    struct Waiter {
      TxnId txn;
      LockMode mode;
      std::shared_ptr<sim::Channel<bool>> wake;  // true = granted
    };
    std::deque<Waiter> queue;
  };

  struct Transaction {
    std::optional<TxnId> parent;
    std::set<TxnId> children;
    std::map<std::string, std::optional<circus::Bytes>> workspace;
    std::set<std::string> locks_held;  // keys this txn (itself) locked
  };

  // The value of `key` as seen by `txn` (workspace chain, then base).
  std::optional<circus::Bytes> Lookup(const TxnId& txn,
                                      const std::string& key) const;
  sim::Task<circus::Status> Acquire(const TxnId& txn,
                                    const std::string& key, LockMode mode);
  bool LockGrantable(const Lock& lock, const TxnId& txn,
                     LockMode mode) const;
  // Would `waiter` waiting on the current holders of `lock` close a
  // cycle in the waits-for graph?
  bool WouldDeadlock(const TxnId& waiter, const Lock& lock) const;
  void ReleaseLocks(const TxnId& txn);
  void GrantWaiters(const std::string& key);
  // Is `ancestor` equal to or an ancestor of `txn`?
  bool IsSameOrAncestor(const TxnId& ancestor, const TxnId& txn) const;

  sim::Host* host_;
  std::map<std::string, circus::Bytes> base_;
  std::map<TxnId, Transaction> txns_;
  std::map<std::string, Lock> locks_;
  // waits_for_[t] = the lock key t is currently blocked on.
  std::map<TxnId, std::string> waiting_on_;
  std::set<TxnId> poisoned_;
  sim::Duration lock_timeout_ = sim::Duration::Seconds(1);
  uint64_t deadlock_aborts_ = 0;
  uint64_t lock_timeouts_ = 0;
};

}  // namespace circus::txn

#endif  // SRC_TXN_STORE_H_
