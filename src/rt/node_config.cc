#include "src/rt/node_config.h"

#include <fstream>
#include <sstream>

#include "src/common/parse.h"

namespace circus::rt {

namespace {

circus::Status ParseError(const std::string& what) {
  return circus::Status(circus::ErrorCode::kInvalidArgument, what);
}

}  // namespace

circus::StatusOr<NodeConfig> ParseNodeConfig(const std::string& text) {
  NodeConfig config;
  bool have_listen = false;
  bool have_ringmaster = false;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (size_t hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = std::string(circus::Trim(line));
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return ParseError("line " + std::to_string(lineno) +
                        ": expected key = value");
    }
    const std::string key(circus::Trim(line.substr(0, eq)));
    const std::string value(circus::Trim(line.substr(eq + 1)));
    circus::Status status;
    if (key == "role") {
      if (value == "ringmaster") {
        config.role = NodeConfig::Role::kRingmaster;
      } else if (value == "member") {
        config.role = NodeConfig::Role::kMember;
      } else if (value == "client") {
        config.role = NodeConfig::Role::kClient;
      } else {
        return ParseError("unknown role '" + value + "'");
      }
    } else if (key == "listen" || key == "ringmaster") {
      circus::StatusOr<net::NetAddress> addr = net::ParseNetAddress(value);
      if (!addr.ok()) {
        return addr.status();
      }
      (key == "listen" ? config.listen : config.ringmaster) = *addr;
      (key == "listen" ? have_listen : have_ringmaster) = true;
    } else if (key == "troupe") {
      config.troupe = value;
    } else if (key == "interface") {
      config.interface_name = value;
    } else if (key == "node_name") {
      config.node_name = value;
    } else if (key == "trace_dir") {
      config.trace_dir = value;
    } else if (key == "tap_dir") {
      config.tap_dir = value;
    } else if (key == "stats_port") {
      status = circus::ParseCount(key, value, &config.stats_port);
    } else if (key == "faults_port") {
      status = circus::ParseCount(key, value, &config.faults_port);
    } else if (key == "fault_seed") {
      status = circus::ParseCount(key, value, &config.fault_seed);
    } else if (key == "resilient" || key == "verify") {
      circus::StatusOr<int> flag = circus::ParseInt(key, value);
      if (!flag.ok()) {
        return flag.status();
      }
      (key == "resilient" ? config.resilient : config.verify) = *flag != 0;
    } else if (key == "collation") {
      if (value != "unanimous" && value != "first_come" &&
          value != "majority") {
        return ParseError("collation must be unanimous|first_come|majority");
      }
      config.collation = value;
    } else if (key == "workload") {
      if (value != "echo" && value != "replfs") {
        return ParseError("workload must be echo|replfs");
      }
      config.workload = value;
    } else if (key == "procedure") {
      uint16_t procedure = 0;
      status = circus::ParseCount(key, value, &procedure);
      config.procedure = procedure;
    } else if (key == "slow_call_us") {
      status = circus::ParseCount(key, value, &config.slow_call_us);
    } else if (key == "calls" || key == "payload" || key == "run_seconds") {
      status = circus::ParseCount(key, value,
                                  key == "calls"     ? &config.calls
                                  : key == "payload" ? &config.payload
                                                     : &config.run_seconds);
    } else {
      return ParseError("line " + std::to_string(lineno) +
                        ": unknown key '" + key + "'");
    }
    if (!status.ok()) {
      return status;
    }
  }
  if (!have_listen) {
    return ParseError("config missing 'listen'");
  }
  if (config.role != NodeConfig::Role::kRingmaster && !have_ringmaster) {
    return ParseError("role needs a 'ringmaster' bootstrap address");
  }
  return config;
}

std::string NodeConfig::DisplayName() const {
  if (!node_name.empty()) {
    return node_name;
  }
  return std::string(RoleName()) + "-" + std::to_string(listen.port);
}

const char* NodeConfig::RoleName() const {
  switch (role) {
    case Role::kRingmaster:
      return "ringmaster";
    case Role::kMember:
      return "member";
    case Role::kClient:
      return "client";
  }
  return "unknown";
}

circus::StatusOr<NodeConfig> LoadNodeConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return circus::Status(circus::ErrorCode::kNotFound,
                          "cannot open config: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseNodeConfig(text.str());
}

}  // namespace circus::rt
