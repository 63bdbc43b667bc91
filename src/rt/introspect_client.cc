#include "src/rt/introspect_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "src/common/parse.h"
#include "src/net/fabric.h"

namespace circus::rt {

namespace {

// Replies must fit one datagram so `nc -u` conversations always work.
constexpr size_t kMaxReplyBytes = net::Fabric::kMaxDatagramBytes;

// AskPaged gives up on a server that has not said "end" after this many
// chunks.
constexpr int kMaxPagedRounds = 128;

}  // namespace

std::string TruncatedReply(std::string text) {
  if (text.size() <= kMaxReplyBytes) {
    return text;
  }
  constexpr std::string_view kMark = "...\n";
  text.resize(kMaxReplyBytes - kMark.size());
  // Cut at a line boundary when there is one: consumers that validate
  // line formats (check_realnet) must never see a half metric line.
  const size_t last_newline = text.rfind('\n');
  if (last_newline != std::string::npos) {
    text.resize(last_newline + 1);
  }
  text += kMark;
  return text;
}

std::string PagedReply(const std::string& text, size_t offset) {
  if (offset > text.size()) {
    offset = text.size();
  }
  char header[64];
  size_t body = text.size() - offset;
  int header_len = 0;
  for (;;) {
    const size_t next = offset + body;
    header_len =
        next == text.size()
            ? std::snprintf(header, sizeof(header), "chunk %zu end\n", offset)
            : std::snprintf(header, sizeof(header), "chunk %zu %zu\n", offset,
                            next);
    if (static_cast<size_t>(header_len) + body <= kMaxReplyBytes) {
      break;
    }
    // Shrinking the body can only shrink the header, so this converges.
    body = kMaxReplyBytes - static_cast<size_t>(header_len);
  }
  std::string reply(header, static_cast<size_t>(header_len));
  reply.append(text, offset, body);
  return reply;
}

std::optional<Chunk> ParseChunk(std::string_view reply) {
  constexpr std::string_view kPrefix = "chunk ";
  const size_t eol = reply.find('\n');
  const size_t space = reply.find(' ', kPrefix.size());
  if (!reply.starts_with(kPrefix) || eol == std::string_view::npos ||
      space >= eol) {
    return std::nullopt;
  }
  const circus::StatusOr<size_t> offset = circus::ParseInt<size_t>(
      "offset", reply.substr(kPrefix.size(), space - kPrefix.size()));
  const std::string_view next = reply.substr(space + 1, eol - space - 1);
  const circus::StatusOr<size_t> next_offset =
      circus::ParseInt<size_t>("next", next);
  if (!offset.ok() || (next != "end" && !next_offset.ok())) {
    return std::nullopt;
  }
  return Chunk{*offset,
               next == "end" ? std::nullopt : std::optional(*next_offset),
               reply.substr(eol + 1)};
}

std::optional<std::string> AskPaged(const AskFn& ask,
                                    std::string_view query) {
  std::string text;
  for (int round = 0; round < kMaxPagedRounds; ++round) {
    const std::optional<std::string> reply =
        ask(std::string(query) + " " + std::to_string(text.size()));
    if (!reply.has_value()) {
      return std::nullopt;
    }
    const std::optional<Chunk> chunk = ParseChunk(*reply);
    if (!chunk.has_value() || chunk->offset != text.size()) {
      return std::nullopt;
    }
    text.append(chunk->body);
    if (!chunk->next.has_value()) {
      return text;
    }
    if (*chunk->next != text.size()) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

IntrospectClient::IntrospectClient() : fd_(socket(AF_INET, SOCK_DGRAM, 0)) {}

IntrospectClient::~IntrospectClient() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

std::optional<std::string> IntrospectClient::Ask(
    const net::NetAddress& endpoint, const std::string& request,
    int timeout_ms) {
  if (fd_ < 0) {
    return std::nullopt;
  }
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(endpoint.port);
  to.sin_addr.s_addr = htonl(endpoint.host);
  char buffer[65536];
  // Whatever is already queued answers some earlier, abandoned ask.
  while (recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT) >= 0) {
  }
  if (sendto(fd_, request.data(), request.size(), 0,
             reinterpret_cast<const sockaddr*>(&to), sizeof(to)) < 0) {
    return std::nullopt;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd = {fd_, POLLIN, 0};
    if (left.count() <= 0 ||
        poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      return std::nullopt;
    }
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    const ssize_t n = recvfrom(fd_, buffer, sizeof(buffer), 0,
                               reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n >= 0 && from.sin_port == to.sin_port &&
        from.sin_addr.s_addr == to.sin_addr.s_addr) {
      return std::string(buffer, static_cast<size_t>(n));
    }
  }
}

}  // namespace circus::rt
