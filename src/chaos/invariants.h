// InvariantMonitor: continuously checks the paper's correctness claims
// while a chaos schedule runs against a live troupe, and performs the
// end-of-run analyses:
//
//  * no member-to-member packets, ever (Section 4.3.3) — checked on
//    every send through the network's packet observer (the get_state
//    transfer of a joining-but-not-yet-registered replacement is the one
//    sanctioned exception, Section 6.4.1, and is excluded by only
//    watching registered members);
//  * at-most-once execution per (member, thread, sequence) — duplicate
//    suppression must hold through duplication bursts, retransmit storms
//    and partition heals (Section 4.2.1);
//  * collator soundness: every value the client accepted is a value some
//    member actually computed for that call (Section 4.3.6);
//  * global determinism of replica traces (Section 3.5.2), via
//    model::CompareRecorders over per-member recorders restricted to
//    each member's undamaged window — a member that a partition cut off
//    while an accepted call completed without it has legitimately forked
//    from the troupe (the Section 4.3.5 divergence caveat) and is
//    excluded from the comparison from that call onward;
//  * eventual convergence after heal: the final fresh-cache call and the
//    final membership health check are reported here by the harness.
#ifndef SRC_CHAOS_INVARIANTS_H_
#define SRC_CHAOS_INVARIANTS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/types.h"
#include "src/model/recorder.h"
#include "src/net/network.h"

namespace circus::chaos {

class InvariantMonitor {
 public:
  InvariantMonitor() = default;
  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  // ---- wiring -----------------------------------------------------------
  // Simulation clock, used to time-stamp member registrations. Must be
  // set before AddMemberAddress for the join-tail grace to work.
  void SetClock(std::function<int64_t()> now_nanos) {
    now_nanos_ = std::move(now_nanos);
  }
  // Called for every send operation. The address-pair form is what a
  // kPacketSend bus subscription feeds (the harness's wiring); the
  // Datagram form delegates to it for direct packet-observer use.
  void ObservePacket(net::NetAddress source, net::NetAddress destination);
  void ObservePacket(const net::Datagram& datagram) {
    ObservePacket(datagram.source, datagram.destination);
  }
  // Marks `address` as a registered troupe member for the
  // member-to-member check. Idempotent; members stay in the set after
  // crash or removal (an orphan must not talk to members either).
  // Packets touching a member registered less than kJoinGraceNanos ago
  // are exempt: the get_state transfer the member made just before
  // registering (Section 6.4.1) leaves a bounded retransmit/probe tail
  // on its paired endpoints.
  void AddMemberAddress(net::NetAddress address);

  static constexpr int64_t kJoinGraceNanos = 10'000'000'000;  // 10 s

  // Announces a launched member. `recorder` must outlive the monitor's
  // Finish(); the join index (the count of calls issued so far) is
  // captured now — before the member's get_state transfer — so any call
  // racing the non-atomic join window (Section 6.4.1) falls inside the
  // member's checked range and at worst conservatively damages it.
  void NoteMemberLaunched(int member_serial,
                          const model::TraceRecorder* recorder);

  // ---- workload events --------------------------------------------------
  // The client is about to issue the call carried by `thread_key`;
  // returns the call's global issue index.
  int NoteCallIssued(const std::string& thread_key);
  void NoteCallAccepted(int issue_index, const circus::Bytes& value);
  void NoteCallFailed(int issue_index);
  int issued_count() const { return static_cast<int>(issued_.size()); }

  // A member executed a procedure for (thread, seq), producing `value`.
  // Feeds at-most-once, collator soundness, and damage analysis.
  void NoteExecution(int member_serial, const core::ThreadId& thread,
                     uint32_t thread_seq, const circus::Bytes& value);

  // ---- out-of-band findings (harness-driven checks) ---------------------
  void AddViolation(std::string description);

  // ---- end of run -------------------------------------------------------
  // Runs the end-of-run analyses (soundness, damage, CompareRecorders)
  // and returns every violation found. Call once, after the simulation
  // has fully drained.
  std::vector<std::string> Finish();

  // Digest over every member's full recorded trace, in launch order;
  // byte-identical across runs iff the runs behaved identically.
  uint64_t TraceDigest() const;

 private:
  struct IssuedCall {
    std::string thread_key;
    bool accepted = false;
    bool failed = false;
    circus::Bytes accepted_value;
  };
  struct MemberObs {
    const model::TraceRecorder* recorder = nullptr;
    int join_issue = 0;
    // issue index -> value produced (tracked workload calls only).
    std::map<int, circus::Bytes> executed;
    // at-most-once bookkeeping over every call, tracked or not.
    std::set<std::string> execution_keys;
    std::optional<int> damage;    // first missed-but-executed-elsewhere
    bool unverifiable = false;    // joined after another member forked
  };

  void ComputeDamage();

  std::function<int64_t()> now_nanos_;
  std::map<net::NetAddress, int64_t> member_since_;
  std::set<net::NetAddress> member_addresses_;
  std::map<int, MemberObs> members_;  // by serial
  std::vector<IssuedCall> issued_;
  std::map<std::string, int> issue_of_thread_;
  std::vector<std::string> violations_;
  int packet_violations_ = 0;
  bool finished_ = false;
};

}  // namespace circus::chaos

#endif  // SRC_CHAOS_INVARIANTS_H_
