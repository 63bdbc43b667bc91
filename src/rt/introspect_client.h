// The client side of the one-datagram text protocols a circus_node
// serves — the introspection endpoint (stats_port=, introspect.h) and
// the fault control endpoint (faults_port=, fault_control.h) — and the
// single owner of the reply framing both ends speak.
//
// Paged framing: a reply too large for one datagram is read through
// `<query> <offset>`. Each reply's first line is `chunk <offset> <next>`
// (next = "end" on the last chunk) and the rest is the bytes of the full
// text starting at <offset>; the client re-asks at <next> and
// concatenates the bodies.
//
// The client is plain POSIX UDP with no Runtime, so `circus top` and
// circus_nemesis can poll live nodes from outside any protocol stack.
#ifndef SRC_RT_INTROSPECT_CLIENT_H_
#define SRC_RT_INTROSPECT_CLIENT_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "src/net/address.h"

namespace circus::rt {

// Server side: `text` as one bare reply datagram, cut at a line
// boundary and marked "...\n" when it does not fit.
std::string TruncatedReply(std::string text);

// Server side: the page of `text` starting at `offset` (clamped to the
// end), header included, bounded to one datagram.
std::string PagedReply(const std::string& text, size_t offset);

// One parsed paged reply. `body` views into the parsed reply.
struct Chunk {
  size_t offset = 0;
  std::optional<size_t> next;  // nullopt on the last chunk
  std::string_view body;
};

// nullopt unless `reply` starts with a well-formed chunk header line.
std::optional<Chunk> ParseChunk(std::string_view reply);

// One request datagram in, one reply out; nullopt when none came.
using AskFn = std::function<std::optional<std::string>(const std::string&)>;

// Reassembles the full text of `query` by asking `<query> <offset>`
// through `ask` until the "end" chunk. Fails (nullopt) on a lost or
// malformed reply, an echoed offset other than the one asked, a <next>
// that does not continue the body, or more than 128 chunks.
std::optional<std::string> AskPaged(const AskFn& ask, std::string_view query);

class IntrospectClient {
 public:
  IntrospectClient();
  IntrospectClient(const IntrospectClient&) = delete;
  IntrospectClient& operator=(const IntrospectClient&) = delete;
  ~IntrospectClient();

  // False when the UDP socket could not be opened; every Ask then fails.
  bool ok() const { return fd_ >= 0; }

  // Sends `request` to `endpoint` and waits up to `timeout_ms` for its
  // reply. Only a datagram from `endpoint` is a reply: anything else on
  // the socket, such as a late answer to an earlier ask that timed out,
  // is discarded.
  std::optional<std::string> Ask(const net::NetAddress& endpoint,
                                 const std::string& request, int timeout_ms);

 private:
  int fd_;
};

}  // namespace circus::rt

#endif  // SRC_RT_INTROSPECT_CLIENT_H_
