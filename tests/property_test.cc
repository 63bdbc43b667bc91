// Property-style parameterized sweeps (TEST_P) over the invariants the
// dissertation's correctness arguments rest on:
//
//  * exactly-once execution at all troupe members, for every combination
//    of troupe size and network fault plan (Section 4.1's semantics);
//  * troupe consistency — deterministic members end bit-identical
//    (Section 3.5.2) — under randomized loads and seeds;
//  * identical acceptance order of ordered broadcasts at every member,
//    across seeds and troupe sizes (Section 5.4);
//  * serializability of the lightweight transaction store under
//    randomized concurrent read-modify-write mixes (Section 5.2);
//  * message-layer exactly-once delivery under loss and duplication
//    (Section 4.2).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/process.h"
#include "src/marshal/marshal.h"
#include "src/msg/paired_endpoint.h"
#include "src/net/world.h"
#include "src/txn/ordered_broadcast.h"
#include "src/txn/store.h"
#include "tests/test_util.h"

namespace circus {
namespace {

using core::ModuleNumber;
using core::RpcProcess;
using core::ServerCallContext;
using core::Troupe;
using net::World;
using sim::Duration;
using sim::SyscallCostModel;
using sim::Task;

// ---------------------------------------------------------------------
// Exactly-once execution & troupe consistency under network faults.

struct FaultCase {
  int troupe_size;
  double loss;
  double duplication;
  uint64_t seed;
};

class ExactlyOnceProperty : public ::testing::TestWithParam<FaultCase> {};

TEST_P(ExactlyOnceProperty, EveryMemberExecutesEveryCallOnce) {
  const FaultCase param = GetParam();
  World world(param.seed, SyscallCostModel::Free());
  net::FaultPlan plan;
  plan.loss_probability = param.loss;
  plan.duplicate_probability = param.duplication;
  plan.base_delay = Duration::Micros(300);
  world.network().set_default_fault_plan(plan);

  Troupe troupe;
  troupe.id = core::TroupeId{700};
  std::vector<std::unique_ptr<RpcProcess>> members;
  std::vector<int> executions(param.troupe_size, 0);
  std::vector<int64_t> state(param.troupe_size, 0);
  ModuleNumber module = 0;
  for (int i = 0; i < param.troupe_size; ++i) {
    sim::Host* host = world.AddHost("m" + std::to_string(i));
    auto process =
        std::make_unique<RpcProcess>(&world.network(), host, 9000);
    module = process->ExportModule("acc");
    int* exec = &executions[i];
    int64_t* acc = &state[i];
    process->ExportProcedure(
        module, 0,
        [exec, acc](ServerCallContext&,
                    const Bytes& args) -> Task<StatusOr<Bytes>> {
          ++*exec;
          marshal::Reader r(args);
          *acc += r.ReadI64();  // order- and count-sensitive state
          marshal::Writer w;
          w.WriteI64(*acc);
          co_return w.Take();
        });
    process->SetTroupeId(troupe.id);
    troupe.members.push_back(process->module_address(module));
    members.push_back(std::move(process));
  }

  sim::Host* client_host = world.AddHost("client");
  RpcProcess client(&world.network(), client_host, 8000);
  constexpr int kCalls = 8;
  int completed = 0;
  world.executor().Spawn(
      [](RpcProcess* c, Troupe t, ModuleNumber m, int calls,
         int* done) -> Task<void> {
        const core::ThreadId thread = c->NewRootThread();
        for (int i = 1; i <= calls; ++i) {
          marshal::Writer w;
          w.WriteI64(i);
          StatusOr<Bytes> r = co_await c->Call(thread, t, m, 0, w.Take());
          CIRCUS_CHECK(r.ok());
          ++*done;
        }
      }(&client, troupe, module, kCalls, &completed));
  world.RunFor(Duration::Seconds(300));

  ASSERT_EQ(completed, kCalls);
  const int64_t expected_sum = kCalls * (kCalls + 1) / 2;
  for (int i = 0; i < param.troupe_size; ++i) {
    EXPECT_EQ(executions[i], kCalls) << "member " << i;
    EXPECT_EQ(state[i], expected_sum) << "member " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultSweep, ExactlyOnceProperty,
    ::testing::Values(
        FaultCase{1, 0.0, 0.0, 11}, FaultCase{3, 0.0, 0.0, 12},
        FaultCase{5, 0.0, 0.0, 13}, FaultCase{3, 0.15, 0.0, 14},
        FaultCase{3, 0.0, 0.5, 15}, FaultCase{3, 0.15, 0.3, 16},
        FaultCase{5, 0.1, 0.1, 17}, FaultCase{2, 0.3, 0.0, 18}),
    [](const ::testing::TestParamInfo<FaultCase>& test) {
      const FaultCase& c = test.param;
      return "n" + std::to_string(c.troupe_size) + "_loss" +
             std::to_string(static_cast<int>(c.loss * 100)) + "_dup" +
             std::to_string(static_cast<int>(c.duplication * 100)) +
             "_seed" + std::to_string(c.seed);
    });

// ---------------------------------------------------------------------
// Ordered broadcast: identical order at every member, across seeds.

struct BroadcastCase {
  int members;
  int senders;
  uint64_t seed;
};

class BroadcastOrderProperty
    : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastOrderProperty, AllMembersAcceptIdenticalOrder) {
  const BroadcastCase param = GetParam();
  World world(param.seed, SyscallCostModel::Free());
  sim::Rng delays(param.seed * 3 + 1);

  Troupe troupe;
  troupe.id = core::TroupeId{701};
  std::vector<std::unique_ptr<RpcProcess>> processes;
  std::vector<std::unique_ptr<txn::OrderedBroadcastServer>> servers;
  std::vector<std::vector<std::string>> orders(param.members);
  ModuleNumber module = 0;
  for (int i = 0; i < param.members; ++i) {
    sim::Host* host = world.AddHost("m" + std::to_string(i));
    auto process =
        std::make_unique<RpcProcess>(&world.network(), host, 9000);
    auto server = std::make_unique<txn::OrderedBroadcastServer>(
        process.get(), "ob");
    module = server->module_number();
    process->SetTroupeId(troupe.id);
    troupe.members.push_back(process->module_address(module));
    world.executor().Spawn(
        [](txn::OrderedBroadcastServer* s,
           std::vector<std::string>* out) -> Task<void> {
          while (true) {
            Bytes m = co_await s->NextDelivered();
            out->push_back(StringFromBytes(m));
          }
        }(server.get(), &orders[i]));
    processes.push_back(std::move(process));
    servers.push_back(std::move(server));
  }

  std::vector<std::unique_ptr<RpcProcess>> clients;
  constexpr int kPerSender = 4;
  int completed = 0;
  for (int c = 0; c < param.senders; ++c) {
    sim::Host* host = world.AddHost("c" + std::to_string(c));
    clients.push_back(
        std::make_unique<RpcProcess>(&world.network(), host, 8000));
    for (int m = 0; m < param.members; ++m) {
      net::FaultPlan plan;
      plan.base_delay = Duration::Micros(delays.UniformInt(100, 5000));
      world.network().SetPairFaultPlan(host->id(),
                                       processes[m]->host()->id(), plan);
    }
    world.executor().Spawn(
        [](RpcProcess* client, Troupe t, ModuleNumber mod, int cid,
           int* done) -> Task<void> {
          const core::ThreadId thread = client->NewRootThread();
          for (int k = 0; k < kPerSender; ++k) {
            const uint64_t id = (static_cast<uint64_t>(cid) << 32) | k;
            Status s = co_await txn::AtomicBroadcast(
                client, thread, t, mod, id,
                BytesFromString(std::to_string(cid) + ":" +
                                std::to_string(k)));
            CIRCUS_CHECK(s.ok());
            ++*done;
          }
        }(clients.back().get(), troupe, module, c, &completed));
  }
  world.RunFor(Duration::Seconds(120));
  ASSERT_EQ(completed, param.senders * kPerSender);
  ASSERT_EQ(orders[0].size(),
            static_cast<size_t>(param.senders * kPerSender));
  for (int i = 1; i < param.members; ++i) {
    EXPECT_EQ(orders[i], orders[0]) << "member " << i << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrderSweep, BroadcastOrderProperty,
    ::testing::Values(BroadcastCase{2, 2, 21}, BroadcastCase{3, 3, 22},
                      BroadcastCase{3, 3, 23}, BroadcastCase{5, 2, 24},
                      BroadcastCase{4, 4, 25}, BroadcastCase{3, 5, 26}),
    [](const ::testing::TestParamInfo<BroadcastCase>& test) {
      return "m" + std::to_string(test.param.members) + "_s" +
             std::to_string(test.param.senders) + "_seed" +
             std::to_string(test.param.seed);
    });

// ---------------------------------------------------------------------
// Transaction store: no lost updates under concurrent conflicting
// increments, whatever the interleaving.

struct StoreCase {
  int writers;
  int increments_each;
  uint64_t seed;
};

class StoreSerializabilityProperty
    : public ::testing::TestWithParam<StoreCase> {};

TEST_P(StoreSerializabilityProperty, CommittedIncrementsAllCounted) {
  const StoreCase param = GetParam();
  World world(param.seed, SyscallCostModel::Free());
  sim::Host* host = world.AddHost("node");
  txn::TxnStore store(host);
  store.set_lock_timeout(Duration::Seconds(60));
  {
    marshal::Writer w;
    w.WriteI64(0);
    store.Poke("n", w.Take());
  }
  sim::Rng rng(param.seed * 7);
  int committed = 0;
  for (int writer = 0; writer < param.writers; ++writer) {
    const Duration stagger = Duration::Micros(rng.UniformInt(0, 2000));
    world.executor().Spawn(
        [](txn::TxnStore* s, int id, int count, Duration delay,
           int* out) -> Task<void> {
          co_await s->host()->SleepFor(delay);
          for (int k = 0; k < count; ++k) {
            const txn::TxnId txn{
                core::ThreadId{static_cast<uint32_t>(id), 1, 1},
                static_cast<uint32_t>(k + 1)};
            s->Begin(txn);
            StatusOr<Bytes> v = co_await s->Get(txn, "n");
            if (!v.ok()) {
              s->Abort(txn);
              continue;
            }
            marshal::Reader r(*v);
            const int64_t n = r.ReadI64();
            co_await s->host()->SleepFor(Duration::Micros(100));
            marshal::Writer w;
            w.WriteI64(n + 1);
            Status put = co_await s->Put(txn, "n", w.Take());
            if (put.ok() && s->Commit(txn).ok()) {
              ++*out;
            } else {
              s->Abort(txn);
            }
          }
        }(&store, writer + 1, param.increments_each, stagger, &committed));
  }
  world.RunFor(Duration::Seconds(600));
  const Bytes final_value = *store.Peek("n");
  marshal::Reader r(final_value);
  EXPECT_EQ(r.ReadI64(), committed);
  EXPECT_GT(committed, 0);
  EXPECT_EQ(store.active_transactions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    StoreSweep, StoreSerializabilityProperty,
    ::testing::Values(StoreCase{2, 10, 31}, StoreCase{4, 8, 32},
                      StoreCase{8, 5, 33}, StoreCase{3, 12, 34},
                      StoreCase{6, 6, 35}),
    [](const ::testing::TestParamInfo<StoreCase>& test) {
      return "w" + std::to_string(test.param.writers) + "_k" +
             std::to_string(test.param.increments_each) + "_seed" +
             std::to_string(test.param.seed);
    });

// ---------------------------------------------------------------------
// Paired message layer: every message delivered exactly once, in spite
// of the fault plan.

struct MsgCase {
  double loss;
  double duplication;
  size_t message_bytes;
  uint64_t seed;
};

class MessageDeliveryProperty : public ::testing::TestWithParam<MsgCase> {
};

TEST_P(MessageDeliveryProperty, ExactlyOnceDeliveryPerCallNumber) {
  const MsgCase param = GetParam();
  World world(param.seed, SyscallCostModel::Free());
  net::FaultPlan plan;
  plan.loss_probability = param.loss;
  plan.duplicate_probability = param.duplication;
  plan.base_delay = Duration::MillisF(0.5);
  world.network().set_default_fault_plan(plan);
  sim::Host* client_host = world.AddHost("c");
  sim::Host* server_host = world.AddHost("s");
  net::DatagramSocket cs(&world.network(), client_host, 0);
  net::DatagramSocket ss(&world.network(), server_host, 9000);
  msg::PairedEndpoint client(&cs, {});
  msg::PairedEndpoint server(&ss, {});

  int deliveries = 0;
  server_host->Spawn([](msg::PairedEndpoint* ep, int* out) -> Task<void> {
    while (true) {
      msg::Message m = co_await ep->NextIncomingCall();
      ++*out;
      co_await ep->SendMessage(m.peer, msg::MessageType::kReturn,
                               m.call_number, Bytes(4, 'k'));
    }
  }(&server, &deliveries));

  constexpr int kMessages = 6;
  int round_trips = 0;
  world.executor().Spawn(
      [](msg::PairedEndpoint* ep, net::NetAddress to, size_t bytes,
         int* out) -> Task<void> {
        for (uint32_t call = 1; call <= kMessages; ++call) {
          Status s = co_await ep->SendMessage(
              to, msg::MessageType::kCall, call, Bytes(bytes, 'p'));
          CIRCUS_CHECK(s.ok());
          auto reply = co_await ep->AwaitReturn(to, call);
          CIRCUS_CHECK(reply.ok());
          ++*out;
        }
      }(&client, server.local_address(), param.message_bytes,
        &round_trips));
  world.RunFor(Duration::Seconds(300));
  EXPECT_EQ(round_trips, kMessages);
  EXPECT_EQ(deliveries, kMessages);  // exactly once, never re-delivered
}

INSTANTIATE_TEST_SUITE_P(
    ChaosSweep, MessageDeliveryProperty,
    ::testing::Values(MsgCase{0.0, 0.0, 64, 41},
                      MsgCase{0.2, 0.0, 64, 42},
                      MsgCase{0.0, 0.7, 64, 43},
                      MsgCase{0.2, 0.3, 64, 44},
                      MsgCase{0.3, 0.0, 8000, 45},
                      MsgCase{0.15, 0.25, 8000, 46},
                      MsgCase{0.4, 0.4, 3000, 47}),
    [](const ::testing::TestParamInfo<MsgCase>& test) {
      const MsgCase& c = test.param;
      return "loss" + std::to_string(static_cast<int>(c.loss * 100)) +
             "_dup" + std::to_string(static_cast<int>(c.duplication * 100)) +
             "_bytes" + std::to_string(c.message_bytes) + "_seed" +
             std::to_string(c.seed);
    });

}  // namespace
}  // namespace circus
