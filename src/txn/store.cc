#include "src/txn/store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/marshal/marshal.h"

namespace circus::txn {

using circus::Status;
using circus::StatusOr;
using sim::Task;

std::string TxnId::ToString() const {
  return thread.ToString() + "/txn" + std::to_string(num);
}

void TxnStore::Begin(const TxnId& txn) {
  txns_.try_emplace(txn);
}

void TxnStore::BeginNested(const TxnId& child, const TxnId& parent) {
  CIRCUS_CHECK_MSG(txns_.contains(parent), "parent transaction not active");
  auto [it, inserted] = txns_.try_emplace(child);
  if (inserted) {
    it->second.parent = parent;
    txns_[parent].children.insert(child);
  }
}

bool TxnStore::IsSameOrAncestor(const TxnId& ancestor,
                                const TxnId& txn) const {
  TxnId cur = txn;
  while (true) {
    if (cur == ancestor) {
      return true;
    }
    auto it = txns_.find(cur);
    if (it == txns_.end() || !it->second.parent.has_value()) {
      return false;
    }
    cur = *it->second.parent;
  }
}

std::optional<circus::Bytes> TxnStore::Lookup(const TxnId& txn,
                                              const std::string& key) const {
  // Tentative updates of a transaction are visible to its descendants
  // (Section 2.3.2): walk the chain from the transaction to the root.
  TxnId cur = txn;
  while (true) {
    auto it = txns_.find(cur);
    if (it == txns_.end()) {
      break;
    }
    auto w = it->second.workspace.find(key);
    if (w != it->second.workspace.end()) {
      return w->second;
    }
    if (!it->second.parent.has_value()) {
      break;
    }
    cur = *it->second.parent;
  }
  auto b = base_.find(key);
  if (b == base_.end()) {
    return std::nullopt;
  }
  return b->second;
}

bool TxnStore::LockGrantable(const Lock& lock, const TxnId& txn,
                             LockMode mode) const {
  if (mode == LockMode::kRead) {
    return !lock.writer.has_value() || IsSameOrAncestor(*lock.writer, txn) ||
           *lock.writer == txn;
  }
  if (lock.writer.has_value() && *lock.writer != txn &&
      !IsSameOrAncestor(*lock.writer, txn)) {
    return false;
  }
  for (const TxnId& reader : lock.readers) {
    if (reader != txn && !IsSameOrAncestor(reader, txn)) {
      return false;
    }
  }
  return true;
}

bool TxnStore::WouldDeadlock(const TxnId& waiter, const Lock& lock) const {
  // DFS over the waits-for graph (Section 2.3.1): if waiting on this
  // lock's foreign holders would close a cycle back to the waiter's
  // transaction family, the wait must not begin. Lock holders in the
  // waiter's own family (itself, ancestors, descendants) are not
  // conflict edges — nested transactions share their ancestors' locks.
  auto in_family = [&](const TxnId& t) {
    return t == waiter || IsSameOrAncestor(t, waiter) ||
           IsSameOrAncestor(waiter, t);
  };
  auto holders = [](const Lock& l) {
    std::vector<TxnId> out(l.readers.begin(), l.readers.end());
    if (l.writer.has_value()) {
      out.push_back(*l.writer);
    }
    return out;
  };
  std::vector<TxnId> stack;
  for (const TxnId& h : holders(lock)) {
    if (!in_family(h)) {
      stack.push_back(h);
    }
  }
  std::set<TxnId> visited;
  while (!stack.empty()) {
    TxnId t = stack.back();
    stack.pop_back();
    if (!visited.insert(t).second) {
      continue;
    }
    auto w = waiting_on_.find(t);
    if (w == waiting_on_.end()) {
      continue;
    }
    auto l = locks_.find(w->second);
    if (l == locks_.end()) {
      continue;
    }
    for (const TxnId& h : holders(l->second)) {
      if (in_family(h)) {
        return true;  // the chain comes back to us: a cycle
      }
      stack.push_back(h);
    }
  }
  return false;
}

Task<Status> TxnStore::Acquire(const TxnId& txn, const std::string& key,
                               LockMode mode) {
  if (!txns_.contains(txn)) {
    co_return Status(ErrorCode::kFailedPrecondition,
                     "transaction not active: " + txn.ToString());
  }
  while (true) {
    Lock& lock = locks_[key];
    if (LockGrantable(lock, txn, mode)) {
      if (mode == LockMode::kRead) {
        if (!(lock.writer.has_value() && *lock.writer == txn)) {
          lock.readers.insert(txn);
        }
      } else {
        lock.readers.erase(txn);  // upgrade
        lock.writer = txn;
      }
      txns_[txn].locks_held.insert(key);
      co_return Status::Ok();
    }
    if (WouldDeadlock(txn, lock)) {
      ++deadlock_aborts_;
      poisoned_.insert(txn);
      co_return Status(ErrorCode::kDeadlock,
                       "deadlock acquiring " + key + " for " +
                           txn.ToString());
    }
    auto wake = std::make_shared<sim::Channel<bool>>(host_);
    lock.queue.push_back(Lock::Waiter{txn, mode, wake});
    waiting_on_[txn] = key;
    std::optional<bool> granted =
        co_await wake->ReceiveWithTimeout(lock_timeout_);
    waiting_on_.erase(txn);
    if (!granted.has_value()) {
      // Lock wait expired: presume a deadlock spanning troupe members.
      ++lock_timeouts_;
      poisoned_.insert(txn);
      auto lk = locks_.find(key);
      if (lk != locks_.end()) {
        std::erase_if(lk->second.queue, [&](const Lock::Waiter& w) {
          return w.wake == wake;
        });
      }
      co_return Status(ErrorCode::kDeadlock,
                       "lock wait timed out on " + key + " for " +
                           txn.ToString());
    }
    if (!*granted) {
      co_return Status(ErrorCode::kAborted,
                       "transaction aborted while waiting for " + key);
    }
    // Re-check grantability; another transaction may have slipped in.
  }
}

void TxnStore::GrantWaiters(const std::string& key) {
  auto it = locks_.find(key);
  if (it == locks_.end()) {
    return;
  }
  Lock& lock = it->second;
  while (!lock.queue.empty()) {
    const Lock::Waiter& w = lock.queue.front();
    if (!txns_.contains(w.txn)) {
      lock.queue.pop_front();  // waiter's transaction is gone
      continue;
    }
    if (!LockGrantable(lock, w.txn, w.mode)) {
      break;
    }
    // Wake it; it will re-run the grant logic itself.
    w.wake->Send(true);
    lock.queue.pop_front();
  }
  if (lock.queue.empty() && lock.readers.empty() &&
      !lock.writer.has_value()) {
    locks_.erase(it);
  }
}

void TxnStore::ReleaseLocks(const TxnId& txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return;
  }
  std::set<std::string> keys = std::move(it->second.locks_held);
  it->second.locks_held.clear();
  for (const std::string& key : keys) {
    auto l = locks_.find(key);
    if (l == locks_.end()) {
      continue;
    }
    l->second.readers.erase(txn);
    if (l->second.writer.has_value() && *l->second.writer == txn) {
      l->second.writer.reset();
    }
    GrantWaiters(key);
  }
}

Status TxnStore::Commit(const TxnId& txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "transaction not active: " + txn.ToString());
  }
  // Uncommitted subtransactions abort when the parent finishes.
  std::set<TxnId> children = it->second.children;
  for (const TxnId& child : children) {
    Abort(child);
  }
  it = txns_.find(txn);
  CIRCUS_CHECK(it != txns_.end());
  Transaction txn_state = std::move(it->second);
  if (txn_state.parent.has_value()) {
    // Nested commit: updates become visible to the parent; locks are
    // inherited by the parent (anti-inheritance on abort).
    Transaction& parent = txns_[*txn_state.parent];
    for (auto& [key, value] : txn_state.workspace) {
      parent.workspace[key] = std::move(value);
    }
    for (const std::string& key : txn_state.locks_held) {
      auto l = locks_.find(key);
      if (l != locks_.end()) {
        if (l->second.writer.has_value() && *l->second.writer == txn) {
          l->second.writer = *txn_state.parent;
        }
        if (l->second.readers.erase(txn) > 0) {
          l->second.readers.insert(*txn_state.parent);
        }
      }
      parent.locks_held.insert(key);
    }
    parent.children.erase(txn);
    txns_.erase(txn);
    return Status::Ok();
  }
  // Top-level commit: tentative updates become permanent.
  for (auto& [key, value] : txn_state.workspace) {
    if (value.has_value()) {
      base_[key] = std::move(*value);
    } else {
      base_.erase(key);
    }
  }
  txns_.erase(txn);
  poisoned_.erase(txn);
  // Locks were recorded in txn_state; release them now.
  for (const std::string& key : txn_state.locks_held) {
    auto l = locks_.find(key);
    if (l == locks_.end()) {
      continue;
    }
    l->second.readers.erase(txn);
    if (l->second.writer.has_value() && *l->second.writer == txn) {
      l->second.writer.reset();
    }
    GrantWaiters(key);
  }
  return Status::Ok();
}

void TxnStore::Abort(const TxnId& txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return;
  }
  std::set<TxnId> children = it->second.children;
  for (const TxnId& child : children) {
    Abort(child);
  }
  it = txns_.find(txn);
  CIRCUS_CHECK(it != txns_.end());
  Transaction txn_state = std::move(it->second);
  if (txn_state.parent.has_value()) {
    txns_[*txn_state.parent].children.erase(txn);
  }
  txns_.erase(txn);
  poisoned_.erase(txn);
  // Wake any pending lock waits of this transaction with "aborted".
  for (auto& [key, lock] : locks_) {
    for (auto& waiter : lock.queue) {
      if (waiter.txn == txn) {
        waiter.wake->Send(false);
      }
    }
  }
  for (const std::string& key : txn_state.locks_held) {
    auto l = locks_.find(key);
    if (l == locks_.end()) {
      continue;
    }
    l->second.readers.erase(txn);
    if (l->second.writer.has_value() && *l->second.writer == txn) {
      l->second.writer.reset();
    }
    GrantWaiters(key);
  }
}

Task<StatusOr<circus::Bytes>> TxnStore::Get(const TxnId& txn,
                                            const std::string& key) {
  Status s = co_await Acquire(txn, key, LockMode::kRead);
  if (!s.ok()) {
    co_return s;
  }
  std::optional<circus::Bytes> v = Lookup(txn, key);
  if (!v.has_value()) {
    co_return Status(ErrorCode::kNotFound, "no such object: " + key);
  }
  co_return *v;
}

Task<Status> TxnStore::Put(const TxnId& txn, const std::string& key,
                           circus::Bytes value) {
  Status s = co_await Acquire(txn, key, LockMode::kWrite);
  if (!s.ok()) {
    co_return s;
  }
  txns_[txn].workspace[key] = std::move(value);
  co_return Status::Ok();
}

std::optional<circus::Bytes> TxnStore::Peek(const std::string& key) const {
  auto it = base_.find(key);
  if (it == base_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void TxnStore::Poke(const std::string& key, circus::Bytes value) {
  base_[key] = std::move(value);
}

circus::Bytes TxnStore::ExternalizeState() const {
  marshal::Writer w;
  w.WriteU32(static_cast<uint32_t>(base_.size()));
  for (const auto& [key, value] : base_) {
    w.WriteString(key);
    w.WriteBytes(value);
  }
  return w.Take();
}

void TxnStore::InternalizeState(const circus::Bytes& raw) {
  marshal::Reader r(raw);
  const uint32_t count = r.ReadU32();
  std::map<std::string, circus::Bytes> fresh;
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    std::string key = r.ReadString();
    fresh[key] = r.ReadBytes();
  }
  CIRCUS_CHECK_MSG(r.ok(), "corrupt externalized state");
  base_ = std::move(fresh);
}

}  // namespace circus::txn
