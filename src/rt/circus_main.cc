// circus: the operator tool. One binary, one flag parser, four
// subcommands; each exits 0 on success and 2 on a usage or input error.
//
//   merge  joins per-node trace shards (circus_node trace_dir=) into one
//          Chrome trace, clock-aligned from paired-message exchanges,
//          and prints the alignment report. Exit 3: a shard no paired
//          traffic links to the rest could not be aligned.
//   lat    aligns the shards the same way and prints the per-stage
//          latency table and the K slowest calls (obs::LatencyAttributor);
//          -p prints the Prometheus text of the live `latency` query.
//   wire   audits packet captures against the Section 4.2 rules (--member
//          adds the Section 4.3.3 check); --annotate adds wire_* counts of
//          the tapped sends to every call span of a `merge` trace. Exit 1:
//          protocol violations.
//   top    polls each circus_node's stats port (`health`, paged `util`)
//          and renders one row per (node, resource), every --interval ms
//          or --once. Exit 1: a node never answered.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/common/parse.h"
#include "src/msg/paired_endpoint.h"
#include "src/net/address.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/latency.h"
#include "src/obs/merge.h"
#include "src/obs/shard.h"
#include "src/obs/wire.h"
#include "src/rt/introspect_client.h"

namespace circus::rt {
namespace {

// ------------------------------------------------------------ flags --

// A flag of one subcommand: a switch when `needs` is null, otherwise it
// takes the next argument and `needs` says what that is ("a path").
struct Flag {
  std::string_view name;
  const char* needs = nullptr;
};

// One parsed command line.
struct Args {
  std::string prog;  // "circus merge": the prefix of every message
  // Flag -> value ("" for a switch); a repeated flag keeps every value,
  // in command-line order.
  std::multimap<std::string_view, std::string> flags;
  std::vector<std::string> inputs;

  bool Has(std::string_view flag) const { return flags.count(flag) > 0; }

  // The last value given for `flag`, or `fallback`.
  std::string Value(std::string_view flag, std::string fallback) const {
    const auto [begin, end] = flags.equal_range(flag);
    return begin == end ? fallback : std::prev(end)->second;
  }

  // Reports "<prog>: <what>"; returns the usage/input-error exit code.
  int Fail(const std::string& what) const {
    std::fprintf(stderr, "%s: %s\n", prog.c_str(), what.c_str());
    return 2;
  }

  // Strictly parses a numeric flag into *out, left as is when absent.
  // False, after reporting why, when the value is not one non-negative
  // number in T's range.
  template <typename T>
  bool Number(std::string_view flag, T* out) const {
    const circus::Status parsed =
        Has(flag) ? circus::ParseCount(flag, Value(flag, ""), out)
                  : circus::Status::Ok();
    if (!parsed.ok()) {
      Fail(parsed.message());
    }
    return parsed.ok();
  }
};

struct Subcommand {
  std::string_view name;
  const char* usage;
  std::vector<Flag> flags;
  int (*run)(const Args&);
};

// The one flag loop. False, after printing why (and the usage where it
// helps), on -h/--help, an unknown flag, a flag missing its value, or
// no inputs at all; the caller exits 2.
bool Parse(const Subcommand& sub, int argc, char** argv, Args* args) {
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      args->inputs.emplace_back(arg);
      continue;
    }
    const auto flag =
        std::find_if(sub.flags.begin(), sub.flags.end(),
                     [arg](const Flag& f) { return f.name == arg; });
    if (flag == sub.flags.end()) {
      if (arg != "-h" && arg != "--help") {
        args->Fail("unknown flag " + std::string(arg));
      }
      std::fputs(sub.usage, stderr);
      return false;
    }
    if (flag->needs != nullptr && i + 1 == argc) {
      args->Fail(std::string(arg) + " needs " + flag->needs);
      return false;
    }
    args->flags.emplace(flag->name, flag->needs ? argv[++i] : "");
  }
  if (args->inputs.empty()) {
    std::fputs(sub.usage, stderr);
    return false;
  }
  return true;
}

// ------------------------------------------------------ merge, lat --

// Reads every input shard and clock-aligns them. 0, or the input-error
// exit code after reporting why.
int ReadAndMerge(const Args& args, std::vector<obs::ShardFile>* shards,
                 obs::MergeResult* merged) {
  for (const std::string& path : args.inputs) {
    circus::StatusOr<obs::ShardFile> shard = obs::ReadShardFile(path);
    if (!shard.ok()) {
      return args.Fail(shard.status().ToString());
    }
    shards->push_back(*std::move(shard));
  }
  circus::StatusOr<obs::MergeResult> result = obs::MergeShards(*shards);
  if (!result.ok()) {
    return args.Fail(result.status().ToString());
  }
  *merged = *std::move(result);
  return 0;
}

int Merge(const Args& args) {
  std::vector<obs::ShardFile> shards;
  obs::MergeResult merged;
  if (const int rc = ReadAndMerge(args, &shards, &merged); rc != 0) {
    return rc;
  }
  std::fputs(obs::MergeReport(shards, merged).c_str(), stdout);
  const std::string out_path = args.Value("-o", "merged.trace.json");
  circus::Status written = obs::WriteStringToFile(
      out_path, obs::ToChromeTrace(merged.events, merged.host_names));
  if (!written.ok()) {
    return args.Fail(written.ToString());
  }
  std::printf("wrote %s (%zu events from %zu shards)\n", out_path.c_str(),
              merged.events.size(), shards.size());
  for (size_t k = 0; k < shards.size(); ++k) {
    if (!merged.aligned[k]) {
      args.Fail("shard " + std::to_string(k) + " (" + args.inputs[k] +
                ") has no paired traffic linking it to the reference clock");
      return 3;
    }
  }
  return 0;
}

int Lat(const Args& args) {
  size_t top_k = 5;
  if (!args.Number("-k", &top_k)) {
    return 2;
  }
  std::vector<obs::ShardFile> shards;
  obs::MergeResult merged;
  if (const int rc = ReadAndMerge(args, &shards, &merged); rc != 0) {
    return rc;
  }
  obs::LatencyAttributor::Options options;
  options.max_exemplars = top_k;
  obs::LatencyAttributor attributor(options);
  for (const obs::Event& event : merged.events) {
    attributor.Observe(event);
  }
  if (attributor.calls() == 0) {
    args.Fail("no completed calls in " + std::to_string(shards.size()) +
              " shard(s) (" + std::to_string(merged.events.size()) +
              " events)");
  }
  if (args.Has("-p")) {
    std::fputs(attributor.ToPrometheus().c_str(), stdout);
    return 0;
  }
  std::printf("%zu shard(s), %zu events\n", shards.size(),
              merged.events.size());
  std::fputs(attributor.ToString().c_str(), stdout);
  if (top_k > 0 && attributor.calls() > 0) {
    std::fputs(attributor.SlowCallReport().c_str(), stdout);
  }
  return 0;
}

// ------------------------------------------------------------- wire --

// What one tapped send carried, for span annotation.
enum SendKind { kData, kRetransmit, kAck, kProbe, kSendKinds };
constexpr const char* kSendKindArgs[kSendKinds] = {
    "wire_data", "wire_retransmits", "wire_acks", "wire_probes"};

struct SendSample {
  int64_t time_ns = 0;
  uint64_t bytes = 0;
  SendKind kind = kData;
};

// The send records of `decoded`, classified and sorted by time.
std::vector<SendSample> ClassifySends(
    const std::vector<obs::wire::WireSegment>& decoded) {
  std::vector<SendSample> sends;
  std::set<std::tuple<net::NetAddress, net::NetAddress, int, uint32_t,
                      uint8_t>>
      seen;
  for (const obs::wire::WireSegment& ws : decoded) {
    if (!ws.packet.send) {
      continue;
    }
    SendSample s{ws.packet.time_ns, ws.packet.payload.size(), kData};
    if (ws.segment.ack) {
      s.kind = kAck;
    } else if (ws.segment.is_probe()) {
      s.kind = kProbe;
    } else if (!seen.insert({ws.node, ws.remote,
                             static_cast<int>(ws.segment.type),
                             ws.segment.call_number,
                             ws.segment.segment_number})
                    .second) {
      s.kind = kRetransmit;
    }
    sends.push_back(s);
  }
  std::sort(sends.begin(), sends.end(),
            [](const SendSample& a, const SendSample& b) {
              return a.time_ns < b.time_ns;
            });
  return sends;
}

// Rebuilds one "call" span event with wire-cost args appended. The
// event schema is our own exporter's (obs::ToChromeTrace), so copying
// the known keys is lossless.
obs::json::Value AnnotateSpan(const obs::json::Value& event,
                              const std::vector<SendSample>& sends) {
  const obs::json::Value* ts = event.Find("ts");
  const obs::json::Value* dur = event.Find("dur");
  obs::json::Value out = obs::json::Value::Object();
  for (const char* key : {"name", "ph", "ts", "dur", "pid", "tid"}) {
    if (const obs::json::Value* v = event.Find(key)) {
      out.Set(key, *v);
    }
  }
  obs::json::Value args = obs::json::Value::Object();
  if (const obs::json::Value* a = event.Find("args")) {
    args = *a;
  }
  uint64_t packets = 0, bytes = 0, kinds[kSendKinds] = {};
  if (ts != nullptr && dur != nullptr) {
    const int64_t begin_ns = static_cast<int64_t>(ts->as_double() * 1000.0);
    const int64_t end_ns =
        begin_ns + static_cast<int64_t>(dur->as_double() * 1000.0);
    auto it = std::lower_bound(sends.begin(), sends.end(), begin_ns,
                               [](const SendSample& s, int64_t t) {
                                 return s.time_ns < t;
                               });
    for (; it != sends.end() && it->time_ns <= end_ns; ++it) {
      ++packets;
      bytes += it->bytes;
      ++kinds[it->kind];
    }
  }
  args.Set("wire_packets", packets);
  args.Set("wire_bytes", bytes);
  for (int k = 0; k < kSendKinds; ++k) {
    args.Set(kSendKindArgs[k], kinds[k]);
  }
  out.Set("args", std::move(args));
  return out;
}

int Annotate(const Args& args, const std::vector<SendSample>& sends) {
  const std::string in_path = args.Value("--annotate", "");
  const std::string out_path = args.Value("-o", "wire.trace.json");
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    return args.Fail("cannot open " + in_path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  circus::StatusOr<obs::json::Value> parsed = obs::json::Parse(buffer.str());
  if (!parsed.ok()) {
    return args.Fail(in_path + ": " + parsed.status().ToString());
  }
  const obs::json::Value* events = parsed->Find("traceEvents");
  if (events == nullptr ||
      events->type() != obs::json::Value::Type::kArray) {
    return args.Fail(in_path + " has no traceEvents array");
  }
  obs::json::Value out_events = obs::json::Value::Array();
  size_t annotated = 0;
  for (const obs::json::Value& event : events->items()) {
    const obs::json::Value* ph = event.Find("ph");
    const obs::json::Value* name = event.Find("name");
    const bool call_span = ph != nullptr && ph->as_string() == "X" &&
                           name != nullptr &&
                           name->as_string().starts_with("call ");
    out_events.Append(call_span ? AnnotateSpan(event, sends) : event);
    annotated += call_span ? 1 : 0;
  }
  obs::json::Value root = obs::json::Value::Object();
  root.Set("traceEvents", std::move(out_events));
  if (const obs::json::Value* unit = parsed->Find("displayTimeUnit")) {
    root.Set("displayTimeUnit", *unit);
  }
  circus::Status written = obs::WriteStringToFile(out_path, root.Dump());
  if (!written.ok()) {
    return args.Fail(written.ToString());
  }
  std::printf("annotated %zu call span(s) -> %s\n", annotated,
              out_path.c_str());
  return 0;
}

int Wire(const Args& args) {
  obs::wire::AuditOptions options =
      obs::wire::AuditOptionsFor(msg::EndpointOptions{});
  const auto [members, members_end] = args.flags.equal_range("--member");
  for (auto it = members; it != members_end; ++it) {
    circus::StatusOr<net::NetAddress> addr = net::ParseNetAddress(it->second);
    if (!addr.ok()) {
      return args.Fail(addr.status().ToString());
    }
    options.member_addresses.push_back(*addr);
  }
  const bool annotate = args.Has("--annotate");
  std::vector<obs::wire::WireSegment> decoded;
  const circus::StatusOr<obs::wire::AuditReport> report =
      obs::wire::AuditCaptureFiles(args.inputs, options,
                                   annotate ? &decoded : nullptr);
  if (!report.ok()) {
    return args.Fail(report.status().ToString());
  }
  std::fputs(report->Render(50, !args.Has("--no-conversations")).c_str(),
             stdout);
  if (annotate) {
    if (const int rc = Annotate(args, ClassifySends(decoded)); rc != 0) {
      return rc;
    }
  }
  return report->violations.empty() ? 0 : 1;
}

// -------------------------------------------------------------- top --

std::string Format(const char* format, auto... values) {
  std::string text(std::snprintf(nullptr, 0, format, values...), '\0');
  std::snprintf(text.data(), text.size() + 1, format, values...);
  return text;
}

// Renders "-" for not-applicable busy percentages so cpu-style and
// queue-style resources are tellable apart at a glance.
std::string Pct(double value) {
  return value < 0 ? "-" : Format("%.1f", value);
}

// Polls one node and appends its block of the table to *table: a row
// per resource its util exposition names, in the order it names them.
// False when the node did not answer `health`.
bool PollNode(IntrospectClient& client, const std::string& spec,
              const net::NetAddress& endpoint, int timeout_ms,
              std::string* table) {
  const std::optional<std::string> health =
      client.Ask(endpoint, "health", timeout_ms);
  if (!health.has_value()) {
    *table += Format("%-14s %-12s %s\n", spec.c_str(), "-", "(no reply)");
    return false;
  }
  std::string name = spec;
  std::string role;
  std::istringstream health_lines(*health);
  for (std::string line; std::getline(health_lines, line);) {
    if (line.starts_with("ok ")) {
      name = line.substr(3);
    } else if (line.starts_with("role ")) {
      role = line.substr(5);
    }
  }
  // resource -> circus_util_<family> -> value
  std::vector<std::pair<std::string, std::map<std::string, double>>> rows;
  std::istringstream util_lines(
      AskPaged(
          [&](const std::string& query) {
            return client.Ask(endpoint, query, timeout_ms);
          },
          "util")
          .value_or(""));
  for (std::string line; std::getline(util_lines, line);) {
    char family[64];
    char resource[64];
    double value = 0;
    if (std::sscanf(line.c_str(),
                    "circus_util_%63[^{]{resource=\"%63[^\"]\"} %lf", family,
                    resource, &value) != 3) {
      continue;
    }
    auto row = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
      return r.first == resource;
    });
    if (row == rows.end()) {
      row = rows.emplace(row, resource, std::map<std::string, double>());
    }
    row->second[family] = value;
  }
  if (rows.empty()) {
    *table += Format("%-14s %-12s %s\n", name.c_str(), role.c_str(),
                     "(util query failed)");
  }
  for (const auto& [resource, values] : rows) {
    const auto get = [&values](const char* family, double absent) {
      const auto it = values.find(family);
      return it == values.end() ? absent : it->second;
    };
    const int level = static_cast<int>(get("level", 0));
    *table += Format(
        "%-14s %-12s %-14s %6s %6s %6s %8.1f %9.1f %11.1f %5.0f %s\n",
        name.c_str(), role.c_str(), resource.c_str(),
        Pct(get("busy_pct", -1)).c_str(),
        Pct(get("busy_mean_pct", -1)).c_str(),
        Pct(get("busy_peak_pct", -1)).c_str(), get("queue", 0),
        get("ops_per_sec", 0), get("bytes_per_sec", 0),
        get("errors_total", 0),
        level == 2 ? "saturated" : level == 1 ? "high" : "ok");
  }
  return true;
}

int Top(const Args& args) {
  int interval_ms = 2000;
  int timeout_ms = 500;
  if (!args.Number("--interval", &interval_ms) ||
      !args.Number("--timeout", &timeout_ms)) {
    return 2;
  }
  if (interval_ms <= 0 || timeout_ms <= 0) {
    return args.Fail(interval_ms <= 0 ? "--interval must be positive"
                                      : "--timeout must be positive");
  }
  std::vector<net::NetAddress> endpoints;
  for (const std::string& spec : args.inputs) {
    circus::StatusOr<net::NetAddress> addr = net::ParseNetAddress(spec);
    if (!addr.ok() || addr->port == 0) {
      return args.Fail("bad endpoint " + spec + " (want ip:port)");
    }
    endpoints.push_back(*addr);
  }
  const bool once = args.Has("--once");
  IntrospectClient client;
  if (!client.ok()) {
    std::perror("circus top: socket");
    return 1;
  }
  std::vector<bool> ever_alive(endpoints.size(), false);
  for (;;) {
    std::string table = Format(
        "%-14s %-12s %-14s %6s %6s %6s %8s %9s %11s %5s %s\n", "node", "role",
        "resource", "busy%", "mean%", "peak%", "queue", "ops/s", "bytes/s",
        "errs", "level");
    for (size_t i = 0; i < endpoints.size(); ++i) {
      if (PollNode(client, args.inputs[i], endpoints[i], timeout_ms,
                   &table)) {
        ever_alive[i] = true;
      }
    }
    if (!once) {
      // Home the cursor and clear below so the table repaints in place.
      std::fputs("\x1b[H\x1b[J", stdout);
    }
    const std::string refresh =
        once ? "once" : std::to_string(interval_ms) + " ms";
    std::printf("circus top — %zu node(s), refresh %s\n%s", endpoints.size(),
                refresh.c_str(), table.c_str());
    std::fflush(stdout);
    if (once) {
      break;
    }
    usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }
  return std::count(ever_alive.begin(), ever_alive.end(), false) == 0 ? 0 : 1;
}

// ------------------------------------------------------------- main --

const Subcommand kSubcommands[] = {
    {"merge", "usage: circus merge [-o out.trace.json] shard...\n",
     {{"-o", "a path"}}, Merge},
    {"lat", "usage: circus lat [-k slowest] [-p] shard...\n",
     {{"-k", "a count"}, {"-p"}}, Lat},
    {"wire",
     "usage: circus wire [--member addr]... [--annotate merged.json "
     "[-o out.json]] [--no-conversations] capture.tap.jsonl...\n",
     {{"--member", "an address"},
      {"--annotate", "a path"},
      {"-o", "a path"},
      {"--no-conversations"}},
     Wire},
    {"top",
     "usage: circus top [--once] [--interval ms (2000)] [--timeout ms (500)] "
     "host:port...\n",
     {{"--once"},
      {"--interval", "milliseconds"},
      {"--timeout", "milliseconds"}},
     Top},
};

int Main(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "";
  for (const Subcommand& sub : kSubcommands) {
    if (sub.name == name) {
      Args args;
      args.prog = "circus " + std::string(name);
      return Parse(sub, argc - 2, argv + 2, &args) ? sub.run(args) : 2;
    }
  }
  if (!name.empty() && name != "-h" && name != "--help") {
    std::fprintf(stderr, "circus: unknown subcommand '%s'\n",
                 std::string(name).c_str());
  }
  for (const Subcommand& sub : kSubcommands) {
    std::fputs(sub.usage, stderr);
  }
  return 2;
}

}  // namespace
}  // namespace circus::rt

int main(int argc, char** argv) { return circus::rt::Main(argc, argv); }
