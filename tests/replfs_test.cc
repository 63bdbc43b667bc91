// End-to-end tests of the replfs application subsystem (src/apps/
// replfs): a replicated file/KV store whose client and server speak
// only stub-generated marshaling (gen/apps/replfs.h, generated from
// replfs.idl at build time). The deterministic World harness covers the
// full write path -- transactional open, ordered-broadcast write
// staging, troupe commit -- plus aborts, the manifest catalogue,
// unanimous reads, concurrent-client serialization, and a member
// rebuilt from another member's externalized state.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/apps/replfs.h"  // generated at build time
#include "src/apps/replfs/client.h"
#include "src/apps/replfs/server.h"
#include "src/common/check.h"
#include "src/net/world.h"
#include "src/obs/bus.h"

namespace fs = circus::idl::ReplFs;

namespace {

using circus::Bytes;
using circus::ErrorCode;
using circus::Status;
using circus::StatusOr;
using circus::apps::replfs::BlockKey;
using circus::apps::replfs::Client;
using circus::apps::replfs::Server;
using circus::apps::replfs::Session;
using circus::core::RpcProcess;
using circus::core::ThreadId;
using circus::core::Troupe;
using circus::net::World;
using circus::obs::Event;
using circus::obs::EventKind;
using circus::obs::EventLog;
using circus::obs::ThreadRef;
using circus::sim::Duration;
using circus::sim::SyscallCostModel;
using circus::sim::Task;
using circus::txn::RunTransactionOptions;

fs::BlockData MakeBlock(uint16_t fill, size_t words = 4) {
  fs::BlockData data(words);
  for (size_t i = 0; i < words; ++i) {
    data[i] = static_cast<uint16_t>(fill + i);
  }
  return data;
}

// Transaction bodies are free coroutine functions taking their state as
// parameters, adapted by plain non-coroutine lambdas (the same pattern
// as txn_commit_test.cc -- a capturing coroutine lambda is a lifetime
// trap).
Task<Status> WriteBlocksBody(std::string name, uint16_t fill,
                             uint32_t nblocks, Session* session) {
  StatusOr<uint16_t> fd = co_await session->Open(name);
  if (!fd.ok()) {
    co_return fd.status();
  }
  for (uint32_t b = 0; b < nblocks; ++b) {
    Status s = co_await session->Write(
        *fd, b, MakeBlock(static_cast<uint16_t>(fill + b)));
    if (!s.ok()) {
      co_return s;
    }
  }
  co_return co_await session->Close(*fd);
}

Client::Body MakeWriteBlocksBody(std::string name, uint16_t fill,
                                 uint32_t nblocks) {
  return [=](Session& session) {
    return WriteBlocksBody(name, fill, nblocks, &session);
  };
}

Task<Status> WriteThenFailBody(std::string name, Session* session) {
  StatusOr<uint16_t> fd = co_await session->Open(name);
  if (!fd.ok()) {
    co_return fd.status();
  }
  Status s = co_await session->Write(*fd, 0, MakeBlock(7));
  if (!s.ok()) {
    co_return s;
  }
  co_return Status(ErrorCode::kInvalidArgument,
                   "application changed its mind");
}

Task<Status> TwoFilesBody(Session* session) {
  StatusOr<uint16_t> alpha = co_await session->Open("alpha");
  if (!alpha.ok()) {
    co_return alpha.status();
  }
  StatusOr<uint16_t> beta = co_await session->Open("beta");
  if (!beta.ok()) {
    co_return beta.status();
  }
  Status s = co_await session->Write(*alpha, 0, MakeBlock(10));
  if (!s.ok()) {
    co_return s;
  }
  s = co_await session->Write(*beta, 0, MakeBlock(20));
  if (!s.ok()) {
    co_return s;
  }
  s = co_await session->Write(*beta, 1, MakeBlock(30));
  if (!s.ok()) {
    co_return s;
  }
  co_return Status::Ok();
}

// Stages a write, then fails its first attempt as a lock wait that
// deadlocked would; the retry commits its own write.
Task<Status> DeadlockOnceBody(int* attempts, Session* session) {
  StatusOr<uint16_t> fd = co_await session->Open("retry");
  if (!fd.ok()) {
    co_return fd.status();
  }
  Status s = co_await session->Write(
      *fd, 0, MakeBlock(static_cast<uint16_t>(*attempts)));
  if (!s.ok()) {
    co_return s;
  }
  if (++*attempts == 1) {
    co_return Status(ErrorCode::kDeadlock, "injected deadlock");
  }
  co_return co_await session->Close(*fd);
}

Task<void> RunToStatus(Client* client, ThreadId thread, Client::Body body,
                       RunTransactionOptions options, Status* out) {
  *out = co_await client->Run(thread, body, options);
}

class ReplFsTest : public ::testing::Test {
 protected:
  ReplFsTest() : world_(173, SyscallCostModel::Free()) {
    troupe_.id = circus::core::TroupeId{700};
    for (int i = 0; i < 3; ++i) {
      AddMember("fs" + std::to_string(i));
    }
    client_process_ = AddClientProcess("client");
    client_ = std::make_unique<Client>(client_process_.get());
    client_->Bind(troupe_);
  }

  void AddMember(const std::string& name) {
    circus::sim::Host* host = world_.AddHost(name);
    auto process =
        std::make_unique<RpcProcess>(&world_.network(), host, 9000);
    auto server = std::make_unique<Server>(process.get());
    process->SetTroupeId(troupe_.id);
    troupe_.members.push_back(
        process->module_address(server->module_number()));
    world_.executor().Spawn(server->DeliverLoop());
    processes_.push_back(std::move(process));
    servers_.push_back(std::move(server));
  }

  std::unique_ptr<RpcProcess> AddClientProcess(const std::string& name) {
    circus::sim::Host* host = world_.AddHost(name);
    return std::make_unique<RpcProcess>(&world_.network(), host, 8000);
  }

  template <typename T>
  T Run(Task<T> task) {
    auto result = std::make_shared<std::optional<T>>();
    world_.executor().Spawn(
        [](Task<T> inner,
           std::shared_ptr<std::optional<T>> out) -> Task<void> {
          out->emplace(co_await std::move(inner));
        }(std::move(task), result));
    world_.RunFor(Duration::Seconds(60));
    CIRCUS_CHECK_MSG(result->has_value(), "replfs call did not finish");
    return std::move(**result);
  }

  World world_;
  Troupe troupe_;
  std::vector<std::unique_ptr<RpcProcess>> processes_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::unique_ptr<RpcProcess> client_process_;
  std::unique_ptr<Client> client_;
};

TEST_F(ReplFsTest, CommitReplicatesWritesToEveryMember) {
  const Client::Body body = MakeWriteBlocksBody("alpha", 100, 3);
  Status s = Run(client_->Run(client_process_->NewRootThread(), body));
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The commit ran through txn::RunTransaction, which records it.
  EXPECT_EQ(world_.metrics().GetHistogram("txn.commit_ms")->count(), 1u);
  for (auto& server : servers_) {
    EXPECT_EQ(server->committed_transactions(), 1u);
    for (uint32_t b = 0; b < 3; ++b) {
      EXPECT_TRUE(server->store().Peek(BlockKey("alpha", b)).has_value());
    }
    EXPECT_EQ(server->staged_transactions(), 0u);
  }
  // Read-your-writes through the generated stubs, collated unanimously.
  StatusOr<fs::BlockData> data =
      Run(client_->ReadBlock(client_process_->NewRootThread(), "alpha", 2));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, MakeBlock(102));
}

TEST_F(ReplFsTest, AbortDiscardsStagedWrites) {
  const Client::Body body = [](Session& session) {
    return WriteThenFailBody("ghost", &session);
  };
  Status s = Run(client_->Run(client_process_->NewRootThread(), body));
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(world_.metrics().GetCounter("txn.aborts")->value(), 1u);
  for (auto& server : servers_) {
    EXPECT_FALSE(server->store().Peek(BlockKey("ghost", 0)).has_value());
    EXPECT_EQ(server->committed_transactions(), 0u);
    EXPECT_EQ(server->staged_transactions(), 0u);
  }
}

TEST_F(ReplFsTest, DeadlockedAttemptRetriesOnAFreshSession) {
  int attempts = 0;
  const Client::Body body = [&attempts](Session& session) {
    return DeadlockOnceBody(&attempts, &session);
  };
  EventLog log(&world_.bus());
  Status s = Run(client_->Run(client_process_->NewRootThread(), body));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(attempts, 2);
  std::vector<uint64_t> retried_attempts;
  int committed = 0;
  for (const Event& e : log.events()) {
    if (e.kind == EventKind::kTxnRetry) {
      retried_attempts.push_back(e.a);
    } else if (e.kind == EventKind::kTxnResolved && e.a == 1) {
      ++committed;
    }
  }
  EXPECT_EQ(retried_attempts, std::vector<uint64_t>{1});
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(world_.metrics().GetCounter("txn.deadlock_restarts")->value(),
            1u);
  // The retry's session counted its own single write: had it inherited
  // the first attempt's count, the members would wait for a second write
  // that never comes and vote abort.
  for (auto& server : servers_) {
    EXPECT_EQ(server->committed_transactions(), 1u);
    EXPECT_EQ(server->staged_transactions(), 0u);
  }
  StatusOr<fs::BlockData> data =
      Run(client_->ReadBlock(client_process_->NewRootThread(), "retry", 0));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, MakeBlock(1));
}

TEST_F(ReplFsTest, ManifestCataloguesCommittedFiles) {
  const Client::Body body = [](Session& session) {
    return TwoFilesBody(&session);
  };
  Status s = Run(client_->Run(client_process_->NewRootThread(), body));
  ASSERT_TRUE(s.ok()) << s.ToString();
  StatusOr<fs::Manifest> manifest =
      Run(client_->GetManifest(client_process_->NewRootThread()));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->index(), 1u);
  const std::vector<fs::FileInfo>& files = std::get<1>(*manifest);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].name, "alpha");
  EXPECT_EQ(files[0].blocks, 1u);
  ASSERT_EQ(files[0].extents.size(), 1u);
  EXPECT_EQ(files[0].extents[0].words, 4u);
  EXPECT_EQ(files[1].name, "beta");
  EXPECT_EQ(files[1].blocks, 2u);
  EXPECT_EQ(files[1].extents.size(), 2u);
}

TEST_F(ReplFsTest, FreshStoreServesEmptyManifestAndNoSuchFile) {
  StatusOr<fs::Manifest> manifest =
      Run(client_->GetManifest(client_process_->NewRootThread()));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->index(), 0u);
  StatusOr<fs::BlockData> data =
      Run(client_->ReadBlock(client_process_->NewRootThread(), "ghost", 0));
  ASSERT_FALSE(data.ok());
  std::optional<fs::Error> err = fs::GetReportedError(data.status());
  ASSERT_TRUE(err.has_value()) << data.status().ToString();
  EXPECT_EQ(*err, fs::Error::NoSuchFile);
}

TEST_F(ReplFsTest, ConcurrentClientsSerializeOnTheSameFile) {
  auto other_process = AddClientProcess("client2");
  auto other_client = std::make_unique<Client>(other_process.get());
  other_client->Bind(troupe_);
  circus::sim::Rng rng_a(11);
  circus::sim::Rng rng_b(22);
  RunTransactionOptions opts_a;
  opts_a.rng = &rng_a;
  RunTransactionOptions opts_b;
  opts_b.rng = &rng_b;
  Status sa(ErrorCode::kAborted, "unset");
  Status sb(ErrorCode::kAborted, "unset");
  EventLog log(&world_.bus());
  world_.executor().Spawn(RunToStatus(
      client_.get(), client_process_->NewRootThread(),
      MakeWriteBlocksBody("shared", 40, 2), opts_a, &sa));
  world_.executor().Spawn(RunToStatus(
      other_client.get(), other_process->NewRootThread(),
      MakeWriteBlocksBody("shared", 50, 2), opts_b, &sb));
  world_.RunFor(Duration::Seconds(120));
  ASSERT_TRUE(sa.ok()) << sa.ToString();
  ASSERT_TRUE(sb.ok()) << sb.ToString();
  // Each Run resolved as committed exactly once, and every deadlock
  // restart it took is in the trace.
  std::map<ThreadRef, int> committed_by_thread;
  uint64_t retries = 0;
  for (const Event& e : log.events()) {
    if (e.kind == EventKind::kTxnResolved && e.a == 1) {
      ++committed_by_thread[e.thread];
    } else if (e.kind == EventKind::kTxnRetry) {
      ++retries;
    }
  }
  ASSERT_EQ(committed_by_thread.size(), 2u);
  for (const auto& [thread, resolved] : committed_by_thread) {
    EXPECT_EQ(resolved, 1);
  }
  EXPECT_EQ(world_.metrics().GetCounter("txn.deadlock_restarts")->value(),
            retries);
  // 2PL on the manifest serialized the two transactions; every member
  // holds the same winner.
  const std::optional<Bytes> reference =
      servers_[0]->store().Peek(BlockKey("shared", 0));
  ASSERT_TRUE(reference.has_value());
  for (auto& server : servers_) {
    EXPECT_EQ(server->committed_transactions(), 2u);
    const std::optional<Bytes> block =
        server->store().Peek(BlockKey("shared", 0));
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(*block, *reference);
  }
}

TEST_F(ReplFsTest, MemberRebuiltFromStateTransferServesReads) {
  const Client::Body body = MakeWriteBlocksBody("alpha", 100, 3);
  Status s = Run(client_->Run(client_process_->NewRootThread(), body));
  ASSERT_TRUE(s.ok()) << s.ToString();
  // Replace member 2 with a process rebuilt from member 0's
  // externalized state -- the Section 6.4.1 get_state path a rejoining
  // SIGKILLed member takes through the Reconfigurer.
  const Bytes snapshot = servers_[0]->store().ExternalizeState();
  AddMember("fs3");
  servers_.back()->store().InternalizeState(snapshot);
  troupe_.members.erase(troupe_.members.begin() + 2);
  Troupe healed = troupe_;
  client_->Bind(healed);
  // Unanimous collation across the two survivors and the rebuilt
  // member: the snapshot really carried the committed state.
  StatusOr<fs::BlockData> data =
      Run(client_->ReadBlock(client_process_->NewRootThread(), "alpha", 1));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, MakeBlock(101));
  // And the healed troupe commits new transactions.
  const Client::Body more = MakeWriteBlocksBody("beta", 200, 1);
  Status s2 = Run(client_->Run(client_process_->NewRootThread(), more));
  ASSERT_TRUE(s2.ok()) << s2.ToString();
  EXPECT_TRUE(
      servers_.back()->store().Peek(BlockKey("beta", 0)).has_value());
}

}  // namespace
