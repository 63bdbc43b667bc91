#include "src/chaos/invariants.h"

#include <algorithm>

#include "src/chaos/schedule.h"
#include "src/common/check.h"
#include "src/model/history.h"

namespace circus::chaos {

void InvariantMonitor::ObservePacket(net::NetAddress source,
                                     net::NetAddress destination) {
  if (destination.is_multicast()) {
    return;
  }
  if (member_addresses_.contains(source) &&
      member_addresses_.contains(destination)) {
    // The join-tail exemption (see AddMemberAddress in the header).
    if (now_nanos_) {
      const int64_t now = now_nanos_();
      auto src = member_since_.find(source);
      auto dst = member_since_.find(destination);
      if ((src != member_since_.end() &&
           now - src->second < kJoinGraceNanos) ||
          (dst != member_since_.end() &&
           now - dst->second < kJoinGraceNanos)) {
        return;
      }
    }
    // Report the first few; a protocol bug here would flood otherwise.
    if (++packet_violations_ <= 3) {
      const int64_t now = now_nanos_ ? now_nanos_() : -1;
      violations_.push_back("member-to-member packet at t=" +
                            std::to_string(now) + "ns: " +
                            source.ToString() + " -> " +
                            destination.ToString());
    }
  }
}

void InvariantMonitor::AddMemberAddress(net::NetAddress address) {
  if (member_addresses_.insert(address).second && now_nanos_) {
    member_since_[address] = now_nanos_();
  }
}

void InvariantMonitor::NoteMemberLaunched(
    int member_serial, const model::TraceRecorder* recorder) {
  MemberObs& obs = members_[member_serial];
  obs.recorder = recorder;
  obs.join_issue = issued_count();
}

int InvariantMonitor::NoteCallIssued(const std::string& thread_key) {
  const int index = issued_count();
  issued_.push_back(IssuedCall{thread_key, false, false, {}});
  issue_of_thread_[thread_key] = index;
  return index;
}

void InvariantMonitor::NoteCallAccepted(int issue_index,
                                        const circus::Bytes& value) {
  CIRCUS_CHECK(issue_index >= 0 && issue_index < issued_count());
  issued_[issue_index].accepted = true;
  issued_[issue_index].accepted_value = value;
}

void InvariantMonitor::NoteCallFailed(int issue_index) {
  CIRCUS_CHECK(issue_index >= 0 && issue_index < issued_count());
  issued_[issue_index].failed = true;
}

void InvariantMonitor::NoteExecution(int member_serial,
                                     const core::ThreadId& thread,
                                     uint32_t thread_seq,
                                     const circus::Bytes& value) {
  MemberObs& obs = members_[member_serial];
  const std::string thread_key = thread.ToString();
  const std::string exec_key =
      thread_key + "#" + std::to_string(thread_seq);
  if (!obs.execution_keys.insert(exec_key).second) {
    violations_.push_back("exactly-once violated: member " +
                          std::to_string(member_serial) + " executed " +
                          exec_key + " twice");
    return;
  }
  auto it = issue_of_thread_.find(thread_key);
  if (it != issue_of_thread_.end()) {
    obs.executed[it->second] = value;
  }
}

void InvariantMonitor::AddViolation(std::string description) {
  violations_.push_back(std::move(description));
}

void InvariantMonitor::ComputeDamage() {
  // Which issue indices were executed by anyone (a call no member ever
  // saw cannot fork anyone's state).
  std::set<int> executed_by_any;
  for (const auto& [serial, obs] : members_) {
    for (const auto& [index, value] : obs.executed) {
      executed_by_any.insert(index);
    }
  }
  for (auto& [serial, obs] : members_) {
    for (int i = obs.join_issue; i < issued_count(); ++i) {
      if (!executed_by_any.contains(i)) {
        continue;
      }
      if (!obs.executed.contains(i)) {
        obs.damage = i;
        break;
      }
    }
  }
  // A member that joined after some other member had already forked may
  // have inherited the forked state through get_state (the transfer
  // donor is whichever member answered, Section 6.4.1); its values
  // cannot be adjudicated, so it is conservatively excluded from the
  // determinism comparison — but keeps its at-most-once obligations.
  for (auto& [serial, obs] : members_) {
    for (const auto& [other_serial, other] : members_) {
      if (other_serial != serial && other.damage.has_value() &&
          *other.damage < obs.join_issue) {
        obs.unverifiable = true;
        break;
      }
    }
  }
}

std::vector<std::string> InvariantMonitor::Finish() {
  CIRCUS_CHECK(!finished_);
  finished_ = true;
  ComputeDamage();

  // Collator soundness: an accepted value must have been computed by at
  // least one member for that very call.
  for (int i = 0; i < issued_count(); ++i) {
    const IssuedCall& call = issued_[i];
    if (!call.accepted) {
      continue;
    }
    bool executed = false;
    bool value_matches = false;
    for (const auto& [serial, obs] : members_) {
      auto it = obs.executed.find(i);
      if (it == obs.executed.end()) {
        continue;
      }
      executed = true;
      if (it->second == call.accepted_value) {
        value_matches = true;
        break;
      }
    }
    if (!executed) {
      violations_.push_back("call " + std::to_string(i) + " (" +
                            call.thread_key +
                            ") accepted but executed by no member");
    } else if (!value_matches) {
      violations_.push_back("collator unsound: call " + std::to_string(i) +
                            " (" + call.thread_key +
                            ") accepted a value no member computed");
    }
  }

  // Global determinism (Section 3.5.2): restrict each member's trace to
  // the calls inside its undamaged window, then compare behaviourally.
  // Missing threads are prefixes (a member that crashed, joined late, or
  // was excluded recorded less, not differently), so allow_prefix holds.
  std::vector<std::unique_ptr<model::TraceRecorder>> filtered;
  std::vector<const model::TraceRecorder*> pointers;
  std::vector<int> serials;
  for (const auto& [serial, obs] : members_) {
    if (obs.recorder == nullptr || obs.unverifiable) {
      continue;
    }
    auto copy = std::make_unique<model::TraceRecorder>();
    const int limit = obs.damage.value_or(issued_count());
    for (const auto& [index, value] : obs.executed) {
      if (index < obs.join_issue || index >= limit) {
        continue;
      }
      const std::string& key = issued_[index].thread_key;
      const model::EventSequence* trace = obs.recorder->TraceOf(key);
      if (trace == nullptr) {
        continue;
      }
      for (const model::Event& e : trace->events()) {
        copy->Record(key, e);
      }
    }
    pointers.push_back(copy.get());
    serials.push_back(serial);
    filtered.push_back(std::move(copy));
  }
  if (std::optional<model::TraceDivergence> divergence =
          model::CompareRecorders(pointers, /*allow_prefix=*/true)) {
    violations_.push_back(
        "replica traces diverge: members " +
        std::to_string(serials[divergence->recorder_a]) + " and " +
        std::to_string(serials[divergence->recorder_b]) + " on thread " +
        divergence->thread_key + " at event " +
        std::to_string(divergence->index) + ": " + divergence->description);
  }

  return violations_;
}

uint64_t InvariantMonitor::TraceDigest() const {
  uint64_t h = kFnvOffset;
  for (const auto& [serial, obs] : members_) {
    h = HashBytes(h, &serial, sizeof(serial));
    if (obs.recorder == nullptr) {
      continue;
    }
    for (const std::string& key : obs.recorder->Threads()) {
      h = HashBytes(h, key.data(), key.size());
      const model::EventSequence* trace = obs.recorder->TraceOf(key);
      for (const model::Event& e : trace->events()) {
        const uint8_t op = static_cast<uint8_t>(e.op);
        h = HashBytes(h, &op, sizeof(op));
        h = HashBytes(h, &e.proc.module, sizeof(e.proc.module));
        h = HashBytes(h, &e.proc.procedure, sizeof(e.proc.procedure));
        h = HashBytes(h, e.val.data(), e.val.size());
      }
    }
  }
  return h;
}

}  // namespace circus::chaos
