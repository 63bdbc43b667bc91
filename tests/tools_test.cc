// The operator tooling end to end: the `circus` subcommands on trace
// shards and a packet capture from one seeded sim World run, usage and
// input errors of `circus` and circus_nemesis, and the introspection
// client against stand-in UDP nodes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/process.h"
#include "src/net/world.h"
#include "src/obs/json.h"
#include "src/obs/shard.h"
#include "src/rt/introspect_client.h"
#include "src/rt/runtime.h"

namespace circus::rt {
namespace {

using core::RpcProcess;
using sim::Task;
using namespace std::chrono_literals;

struct ToolRun {
  int code = -1;
  std::string output;  // stdout and stderr together
};

ToolRun Sh(const std::string& command) {
  ToolRun run;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  CIRCUS_CHECK(pipe != nullptr);
  char buffer[4096];
  for (size_t n; (n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0;) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  run.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

ToolRun Circus(const std::string& args) {
  return Sh(std::string(CIRCUS_BIN) + " " + args);
}

// The traceEvents of a Chrome trace file; none, after a failure, when
// the file is not one.
std::vector<obs::json::Value> TraceEvents(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  StatusOr<obs::json::Value> trace = obs::json::Parse(text.str());
  const obs::json::Value* events =
      trace.ok() ? trace->Find("traceEvents") : nullptr;
  EXPECT_NE(events, nullptr) << path << ": " << trace.status().ToString();
  return events != nullptr ? events->items() : std::vector<obs::json::Value>();
}

Task<void> EchoCalls(RpcProcess* client, core::Troupe troupe,
                     core::ModuleNumber module, bool* done) {
  const core::ThreadId thread = client->NewRootThread();
  const Bytes args(16, 'e');
  for (int i = 0; i < 5; ++i) {
    StatusOr<Bytes> r = co_await client->Call(thread, troupe, module, 0, args);
    CIRCUS_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  }
  *done = true;
}

// One seeded sim run: five unanimous echo calls to a two-member troupe,
// a trace shard per host as if each were its own circus_node, and one
// capture of every datagram.
class CircusToolTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = testing::TempDir() + "circus_tools." + std::to_string(getpid());
    std::filesystem::create_directories(dir_);
    net::World world(4242);
    world.CapturePackets(dir_ + "/world.tap.jsonl");
    std::vector<std::unique_ptr<RpcProcess>> processes;
    std::vector<std::unique_ptr<obs::ShardWriter>> writers;
    core::Troupe troupe;
    troupe.id = core::TroupeId{500};
    core::ModuleNumber module = 0;
    for (const std::string name : {"client", "member0", "member1"}) {
      sim::Host* host = world.AddHost(name);
      auto& process = processes.emplace_back(
          std::make_unique<RpcProcess>(&world.network(), host, 9000));
      const bool member = processes.size() > 1;
      if (member) {
        module = process->ExportModule("echo");
        process->ExportProcedure(
            module, 0,
            [](core::ServerCallContext&,
               const Bytes& args) -> Task<StatusOr<Bytes>> {
              co_return Bytes(args);
            });
        process->SetTroupeId(troupe.id);
        troupe.members.push_back(process->module_address(module));
      }
      const std::string path = dir_ + "/" + name + ".trace.jsonl";
      shards_ += " " + path;
      writers.push_back(std::make_unique<obs::ShardWriter>(
          path, obs::ShardInfo{name, member ? "member" : "client",
                               process->process_address().ToString(),
                               100 + processes.size(), "sim"}));
      writers.back()->Attach(&world.bus(), host->id());
    }
    bool done = false;
    world.executor().Spawn(
        EchoCalls(processes[0].get(), troupe, module, &done));
    world.RunFor(sim::Duration::Seconds(30));
    CIRCUS_CHECK(done);
    for (auto& writer : writers) {
      CIRCUS_CHECK(writer->Flush().ok());
    }
    CIRCUS_CHECK(world.packet_capture()->Flush().ok());
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  static std::string dir_;
  static std::string shards_;  // " <path>" per shard
};

std::string CircusToolTest::dir_;
std::string CircusToolTest::shards_;

TEST_F(CircusToolTest, MergeWritesParseableChromeTrace) {
  const std::string out = dir_ + "/merged.trace.json";
  const ToolRun run = Circus("merge -o " + out + shards_);
  ASSERT_EQ(run.code, 0) << run.output;
  EXPECT_NE(run.output.find("wrote " + out + " ("), std::string::npos)
      << run.output;
  size_t call_spans = 0;
  for (const obs::json::Value& event : TraceEvents(out)) {
    const obs::json::Value* name = event.Find("name");
    call_spans += name != nullptr && name->as_string().starts_with("call ");
  }
  EXPECT_EQ(call_spans, 5u);
}

TEST_F(CircusToolTest, LatPrintsTheStageTable) {
  const ToolRun run = Circus("lat -k 2" + shards_);
  ASSERT_EQ(run.code, 0) << run.output;
  for (const char* line :
       {"3 shard(s), ", "latency attribution: 5 calls", "  stage ",
        "  end_to_end ", "  commit_wait "}) {
    EXPECT_NE(run.output.find(line), std::string::npos) << run.output;
  }
  const ToolRun prometheus = Circus("lat -p" + shards_);
  ASSERT_EQ(prometheus.code, 0) << prometheus.output;
  EXPECT_TRUE(prometheus.output.starts_with("# TYPE circus_latency_stage_us"))
      << prometheus.output;
}

TEST_F(CircusToolTest, WireAuditsCleanAndAnnotatesTheMergeOutput) {
  const std::string merged = dir_ + "/for_wire.trace.json";
  ASSERT_EQ(Circus("merge -o " + merged + shards_).code, 0);
  const std::string annotated = dir_ + "/wire.trace.json";
  const ToolRun run = Circus("wire --no-conversations --annotate " + merged +
                             " -o " + annotated + " " + dir_ +
                             "/world.tap.jsonl");
  ASSERT_EQ(run.code, 0) << run.output;
  EXPECT_NE(run.output.find("wire audit: 0 violation"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("annotated 5 call span(s) -> " + annotated),
            std::string::npos)
      << run.output;
  uint64_t packets = 0;
  for (const obs::json::Value& event : TraceEvents(annotated)) {
    const obs::json::Value* args = event.Find("args");
    const obs::json::Value* wire =
        args != nullptr ? args->Find("wire_packets") : nullptr;
    packets += wire != nullptr ? wire->AsU64() : 0;
  }
  EXPECT_GT(packets, 0u);
}

// A bad flag, number, endpoint, subcommand or input exits 2 with a
// message, in `circus` and in circus_nemesis alike.
TEST_F(CircusToolTest, UsageAndInputErrorsExitTwo) {
  const std::string shard = shards_.substr(1, shards_.find(' ', 1) - 1);
  const std::string missing = dir_ + "/missing.trace.jsonl";
  for (const std::string& args : std::vector<std::string>{
           "", "bogus " + shard, "--help", "merge --no-such-flag " + shard,
           "merge -h " + shard, "merge", "merge -o", "merge " + missing,
           "lat -k abc " + shard, "lat -k 5x " + shard, "lat -k -1 " + shard,
           "wire --member 127.0.0.1:80abc " + dir_ + "/world.tap.jsonl",
           "wire " + missing, "top --interval 5x 127.0.0.1:9",
           "top --timeout 0 127.0.0.1:9", "top 127.0.0.1:80abc",
           "top 127.0.0.1:0", "top 127.0.0.1"}) {
    const ToolRun run = Circus(args);
    EXPECT_EQ(run.code, 2) << "circus " << args << "\n" << run.output;
    EXPECT_FALSE(run.output.empty()) << "circus " << args;
  }
  for (const char* args :
       {"seed=abc", "seed=7x", "members=3x", "horizon_s=", "actions=-",
        "base_port=abc", "base_port=0", "base_port=65500",
        "members=8 base_port=65447"}) {
    const ToolRun run = Sh(std::string(CIRCUS_NEMESIS_BIN) + " " + args);
    EXPECT_EQ(run.code, 2) << args << "\n" << run.output;
    EXPECT_TRUE(run.output.starts_with("nemesis: ")) << run.output;
  }
}

constexpr char kUtilText[] = "circus_util_busy_pct{resource=\"rt.loop\"} 5\n";

// A stand-in stats endpoint on 127.0.0.1 that answers its next
// `queries` datagrams: `health` after `health_delay`, anything else at
// once with a one-chunk util exposition.
struct FakeNode {
  FakeNode(std::string name, std::chrono::milliseconds health_delay,
           int queries)
      : fd(socket(AF_INET, SOCK_DGRAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    CIRCUS_CHECK(bind(fd, reinterpret_cast<sockaddr*>(&addr), len) == 0);
    getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    address = {kLoopbackAddress, ntohs(addr.sin_port)};
    const timeval give_up{5, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &give_up, sizeof(give_up));
    server = std::thread([=, this] {
      for (int i = 0; i < queries; ++i) {
        char query[64] = {};
        sockaddr_in from{};
        socklen_t from_len = sizeof(from);
        if (recvfrom(fd, query, sizeof(query) - 1, 0,
                     reinterpret_cast<sockaddr*>(&from), &from_len) < 0) {
          return;
        }
        const bool health = std::string_view(query) == "health";
        if (health) {
          std::this_thread::sleep_for(health_delay);
        }
        const std::string reply =
            health ? "ok " + name + "\nrole member\n"
                   : "chunk 0 end\n" + std::string(kUtilText);
        sendto(fd, reply.data(), reply.size(), 0,
               reinterpret_cast<sockaddr*>(&from), from_len);
      }
    });
  }
  ~FakeNode() {
    server.join();
    close(fd);
  }

  int fd;
  net::NetAddress address;
  std::thread server;
};

// Node A answers after 600 ms, past the 500 ms timeout; node B after
// 200 ms. A's late reply reaches the shared socket while the client
// waits on B and must not be taken for B's: not by the client, and so
// not in `circus top`'s table either.
TEST(IntrospectClientTest, LateReplyIsNotCreditedToTheNextEndpoint) {
  FakeNode slow("slowA", 600ms, /*queries=*/2);
  FakeNode fast("fastB", 200ms, /*queries=*/4);
  IntrospectClient client;
  EXPECT_FALSE(client.Ask(slow.address, "health", 500).has_value());
  EXPECT_EQ(client.Ask(fast.address, "health", 500),
            "ok fastB\nrole member\n");
  EXPECT_EQ(AskPaged(
                [&](const std::string& query) {
                  return client.Ask(fast.address, query, 500);
                },
                "util"),
            kUtilText);

  const std::string slow_spec = slow.address.ToString();
  const ToolRun run = Circus("top --once --timeout 500 " + slow_spec + " " +
                             fast.address.ToString());
  EXPECT_EQ(run.code, 1) << run.output;  // A never answered in time
  EXPECT_NE(run.output.find(slow_spec + " -            (no reply)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("fastB          member       rt.loop"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("slowA"), std::string::npos) << run.output;
}

// AskPaged reassembles the server's own framing, gives up on a server
// that never says "end", and refuses replies that do not frame the text
// it asked for.
TEST(IntrospectClientTest, AskPagedChecksTheFraming) {
  const std::string text(5000, 'z');
  const AskFn server = [&text](const std::string& query) {
    return std::optional(PagedReply(text, std::stoul(query.substr(6))));
  };
  EXPECT_EQ(AskPaged(server, "spans"), text);
  int rounds = 0;  // a server whose text outgrows every page
  const AskFn endless = [&rounds](const std::string& query) {
    const size_t offset = std::stoul(query.substr(6));
    ++rounds;
    return std::optional(PagedReply(std::string(offset + 2000, 'x'), offset));
  };
  EXPECT_FALSE(AskPaged(endless, "spans").has_value());
  EXPECT_EQ(rounds, 128);
  for (const char* reply : {static_cast<const char*>(nullptr),
                            "err bad offset\n", "chunk 0 end",
                            "chunk 3 end\nabc", "chunk 0 9\nabc",
                            "chunk 0 3x\nabc"}) {
    const AskFn broken = [reply](const std::string&) {
      return reply ? std::optional<std::string>(reply) : std::nullopt;
    };
    EXPECT_FALSE(AskPaged(broken, "spans").has_value())
        << (reply ? reply : "(no reply)");
  }
}

}  // namespace
}  // namespace circus::rt
