#include "src/net/address.h"

#include <cstdio>

#include "src/common/parse.h"

namespace circus::net {

std::string NetAddress::ToString() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u", (host >> 24) & 0xFF,
                (host >> 16) & 0xFF, (host >> 8) & 0xFF, host & 0xFF, port);
  return buf;
}

circus::StatusOr<NetAddress> ParseNetAddress(std::string_view text) {
  const auto bad = [text](std::string_view why) {
    return circus::Status(circus::ErrorCode::kInvalidArgument,
                          "address '" + std::string(text) +
                              "': " + std::string(why));
  };
  const size_t colon = text.rfind(':');
  if (colon == std::string_view::npos) {
    return bad("missing ':port'");
  }
  circus::StatusOr<Port> port =
      circus::ParseInt<Port>("port", text.substr(colon + 1));
  if (!port.ok()) {
    return bad(port.status().message());
  }
  HostAddress host = 0;
  std::string_view rest = text.substr(0, colon);
  for (int i = 0; i < 4; ++i) {
    // The last octet runs to the colon, less one trailing '.' ("1.2.3.4.");
    // a stray fifth octet is junk in it.
    const size_t dot = i < 3 ? rest.find('.') : rest.size();
    if (dot == std::string_view::npos) {
      return bad("not dotted-quad IPv4");
    }
    std::string_view field = rest.substr(0, dot);
    if (i == 3 && field.ends_with('.')) {
      field.remove_suffix(1);
    }
    circus::StatusOr<uint8_t> octet =
        circus::ParseInt<uint8_t>("ip octet", field);
    if (!octet.ok()) {
      return bad(octet.status().message());
    }
    host = (host << 8) | *octet;
    rest.remove_prefix(i < 3 ? dot + 1 : dot);
  }
  return NetAddress{host, *port};
}

}  // namespace circus::net
