// The troupe reconfigurer: the programming-in-the-large maintenance loop
// the dissertation sketches across Sections 6.4 and 7.5.3. Given a
// troupe specification in the configuration language and a launcher that
// can instantiate a module on a machine (the paper's per-machine
// instantiation servers), a sweep:
//
//   1. probes every registered member with the null call and removes the
//      dead ones from the binding agent (garbage collection, Section 6.1)
//      and withdraws their machines from the attribute database;
//   2. solves the troupe extension problem for the surviving member set
//      (minimal symmetric difference, Section 7.5.3);
//   3. launches a member on each newly selected machine and brings it up
//      to date with the get_state transfer before registering it
//      (Section 6.4.1).
//
// Run periodically, this keeps the troupe at the specified strength; how
// quickly it must run for a target availability is exactly the
// replacement-time analysis of Section 6.4.2 (see bench_availability).
#ifndef SRC_BINDING_RECONFIGURER_H_
#define SRC_BINDING_RECONFIGURER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/binding/backoff.h"
#include "src/binding/client.h"
#include "src/config/manager.h"
#include "src/config/ast.h"
#include "src/core/process.h"
#include "src/sim/random.h"

namespace circus::binding {

struct ReconfigReport {
  int members_removed = 0;
  int members_added = 0;
  size_t final_size = 0;
};

class Reconfigurer {
 public:
  // What a launcher returns: a freshly created troupe member process
  // with its module exported and a way to install transferred state.
  struct LaunchedMember {
    core::RpcProcess* process = nullptr;
    core::ModuleNumber module = 0;
    std::function<void(const circus::Bytes&)> accept_state;
  };
  // Instantiates the managed module on `machine`; the returned process
  // is owned by the launcher's environment and must outlive the troupe.
  using Launcher =
      std::function<circus::StatusOr<LaunchedMember>(config::MachineId)>;

  // `agent_process` performs the probing and registry calls; `database`
  // is mutated: machines whose members die are withdrawn from service.
  Reconfigurer(core::RpcProcess* agent_process, BindingClient* binding,
               config::MachineDatabase* database);

  // Declares the troupe to manage: its name, its specification, the
  // launcher, and the machine each process address corresponds to
  // (maintained as members come and go).
  void Manage(const std::string& troupe_name, config::TroupeSpec spec,
              Launcher launcher);

  // One maintenance pass over the managed troupe. Also performs the
  // initial instantiation when the troupe does not exist yet.
  sim::Task<circus::StatusOr<ReconfigReport>> SweepOnce();

  // Backoff between registry re-lookups (full jitter, capped): under a
  // partition every reconfigurer's sweep fails at once, and a fixed
  // retry interval would send them all back in lockstep when it heals.
  void set_backoff_policy(const BackoffPolicy& policy) {
    backoff_policy_ = policy;
  }
  // Test hook: observes every retry sleep (attempt, chosen delay).
  using RetrySleepObserver = std::function<void(int, sim::Duration)>;
  void set_retry_sleep_observer(RetrySleepObserver observer) {
    retry_observer_ = std::move(observer);
  }

 private:
  sim::Task<bool> MemberAlive(const core::ModuleAddress& member);
  // LookupByName with backoff on transient failures; kNotFound is an
  // answer (first instantiation), never retried.
  sim::Task<circus::StatusOr<core::Troupe>> LookupWithRetry();
  sim::Rng& BackoffRng();

  core::RpcProcess* agent_;
  BindingClient* binding_;
  config::MachineDatabase* database_;
  config::ConfigurationManager manager_;
  std::string troupe_name_;
  config::TroupeSpec spec_;
  Launcher launcher_;
  std::map<net::NetAddress, config::MachineId> machine_of_;
  BackoffPolicy backoff_policy_;
  std::optional<sim::Rng> backoff_rng_;
  RetrySleepObserver retry_observer_;
};

}  // namespace circus::binding

#endif  // SRC_BINDING_RECONFIGURER_H_
