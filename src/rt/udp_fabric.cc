#include "src/rt/udp_fabric.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/check.h"

namespace circus::rt {

namespace {

sockaddr_in ToSockaddr(net::NetAddress addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.host);
  sa.sin_port = htons(addr.port);
  return sa;
}

net::NetAddress FromSockaddr(const sockaddr_in& sa) {
  return net::NetAddress{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

}  // namespace

UdpFabric::~UdpFabric() {
  // Sockets normally unbind themselves (Close / crash listener) before
  // the fabric dies; anything left gets its fd reclaimed here.
  for (auto& [socket, binding] : bindings_) {
    loop_->UnwatchFd(binding.fd);
    close(binding.fd);
  }
}

void UdpFabric::AttachHost(sim::Host* host, net::HostAddress interface_ip) {
  CIRCUS_CHECK(!net::IsMulticastHost(interface_ip));
  host_ip_[host->id()] = interface_ip;
}

net::HostAddress UdpFabric::AddressOfHost(sim::Host::HostId id) const {
  auto it = host_ip_.find(id);
  CIRCUS_CHECK_MSG(it != host_ip_.end(), "host not attached");
  return it->second;
}

circus::StatusOr<UdpFabric::Binding> UdpFabric::OpenAndBind(
    net::HostAddress ip, net::Port port) {
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return circus::Status(circus::ErrorCode::kUnavailable,
                          std::string("socket: ") + std::strerror(errno));
  }
  if (port != 0) {
    sockaddr_in sa = ToSockaddr(net::NetAddress{ip, port});
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const int err = errno;
      close(fd);
      if (err == EADDRINUSE) {
        return circus::Status(circus::ErrorCode::kAlreadyExists,
                              "port already bound");
      }
      return circus::Status(circus::ErrorCode::kUnavailable,
                            std::string("bind: ") + std::strerror(err));
    }
    return Binding{fd, net::NetAddress{ip, port}};
  }
  // Port 0: draw from the fabric's ephemeral range ourselves so the
  // range knob (and its exhaustion failure mode) behaves exactly as on
  // the simulated Network.
  if (next_ephemeral_port_ < ephemeral_lo_ ||
      next_ephemeral_port_ > ephemeral_hi_) {
    next_ephemeral_port_ = ephemeral_lo_;
  }
  const int range = ephemeral_hi_ - ephemeral_lo_ + 1;
  for (int attempts = 0; attempts < range; ++attempts) {
    const net::Port p = next_ephemeral_port_++;
    if (next_ephemeral_port_ > ephemeral_hi_) {
      next_ephemeral_port_ = ephemeral_lo_;
    }
    sockaddr_in sa = ToSockaddr(net::NetAddress{ip, p});
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) {
      return Binding{fd, net::NetAddress{ip, p}};
    }
    if (errno != EADDRINUSE) {
      const int err = errno;
      close(fd);
      return circus::Status(circus::ErrorCode::kUnavailable,
                            std::string("bind: ") + std::strerror(err));
    }
  }
  close(fd);
  return circus::Status(circus::ErrorCode::kUnavailable,
                        "ephemeral ports exhausted");
}

circus::StatusOr<net::NetAddress> UdpFabric::Bind(net::DatagramSocket* socket,
                                                  net::Port port) {
  const net::HostAddress ip = AddressOfHost(socket->host()->id());
  circus::StatusOr<Binding> binding = OpenAndBind(ip, port);
  if (!binding.ok()) {
    return binding.status();
  }
  bindings_[socket] = *binding;
  by_address_[binding->local] = socket;
  const int fd = binding->fd;
  loop_->WatchFd(fd, [this, socket] { DrainFd(socket); });
  return binding->local;
}

void UdpFabric::Unbind(net::DatagramSocket* socket) {
  auto it = bindings_.find(socket);
  if (it == bindings_.end()) {
    return;
  }
  loop_->UnwatchFd(it->second.fd);
  close(it->second.fd);
  by_address_.erase(it->second.local);
  bindings_.erase(it);
  for (auto& [group, members] : groups_) {
    members.erase(socket);
  }
}

void UdpFabric::JoinGroup(net::HostAddress group,
                          net::DatagramSocket* socket) {
  CIRCUS_CHECK(net::IsMulticastHost(group));
  groups_[group].insert(socket);
}

void UdpFabric::LeaveGroup(net::HostAddress group,
                           net::DatagramSocket* socket) {
  auto it = groups_.find(group);
  if (it != groups_.end()) {
    it->second.erase(socket);
    if (it->second.empty()) {
      groups_.erase(it);
    }
  }
}

size_t UdpFabric::TotalReceiveBacklog() const {
  size_t total = 0;
  for (const auto& [address, socket] : by_address_) {
    total += socket->queued();
  }
  return total;
}

void UdpFabric::Transmit(sim::Host* sender, net::Datagram datagram) {
  CIRCUS_CHECK_MSG(datagram.payload.size() <= kMaxDatagramBytes,
                   "datagram exceeds network MTU");
  ++stats_.packets_sent;
  stats_.bytes_sent += datagram.payload.size();
  ObserveSend(sender, datagram);
  auto src = by_address_.find(datagram.source);
  if (src == by_address_.end()) {
    // Source socket raced with close; a real kernel would have no fd to
    // send on either.
    ++stats_.send_errors;
    return;
  }
  const int fd = bindings_[src->second].fd;
  auto send_to = [&](net::NetAddress dest) {
    sockaddr_in sa = ToSockaddr(dest);
    const ssize_t n =
        sendto(fd, datagram.payload.data(), datagram.payload.size(), 0,
               reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (n < 0) {
      // Datagram semantics: send failures (full buffers, unreachable)
      // are silent drops to the protocol layers — but backpressure is
      // the one drop cause an operator can act on, so it is counted and
      // published separately.
      const int err = errno;
      ++stats_.send_errors;
      if (err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS) {
        ++stats_.backpressure;
        if (metrics() != nullptr) {
          metrics()->GetCounter("rt.socket.backpressure")->Increment();
        }
        if (event_bus() != nullptr && event_bus()->active()) {
          obs::Event e;
          e.kind = obs::EventKind::kSocketStall;
          e.host = sender->id();
          e.origin = obs::PackAddress(datagram.source.host,
                                      datagram.source.port);
          e.a = obs::PackAddress(dest.host, dest.port);
          e.c = static_cast<uint64_t>(err);
          event_bus()->Publish(std::move(e));
        }
      }
    }
  };
  if (datagram.destination.is_multicast()) {
    auto it = groups_.find(datagram.destination.host);
    if (it == groups_.end()) {
      return;
    }
    // Emulated multicast: one unicast copy per locally joined socket
    // (see header). The wire carries the group address inside the
    // segment, so receivers observe the same bytes as under real
    // multicast.
    for (net::DatagramSocket* member : it->second) {
      send_to(member->local_address());
    }
    return;
  }
  send_to(datagram.destination);
}

void UdpFabric::DrainFd(net::DatagramSocket* socket) {
  auto it = bindings_.find(socket);
  if (it == bindings_.end()) {
    return;
  }
  const int fd = it->second.fd;
  const net::NetAddress local = it->second.local;
  // One recvmmsg per batch. Oversized buffers so an over-MTU datagram is
  // detected, not split.
  constexpr unsigned kBatch = 16;
  unsigned char bufs[kBatch][kMaxDatagramBytes + 1];
  iovec iovs[kBatch];
  sockaddr_in sources[kBatch];
  mmsghdr msgs[kBatch];
  for (;;) {
    for (unsigned i = 0; i < kBatch; ++i) {
      iovs[i] = iovec{bufs[i], sizeof(bufs[i])};
      msgs[i] = mmsghdr{};
      msgs[i].msg_hdr.msg_name = &sources[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(sources[i]);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int n = recvmmsg(fd, msgs, kBatch, 0, nullptr);
    if (n < 0) {
      // EAGAIN: drained. Anything else: treat like a lost datagram.
      return;
    }
    for (int i = 0; i < n; ++i) {
      const size_t len = msgs[i].msg_len;
      if (len > kMaxDatagramBytes) {
        ++stats_.truncated;
        continue;
      }
      ++stats_.packets_delivered;
      stats_.bytes_delivered += len;
      net::Datagram d;
      d.source = FromSockaddr(sources[i]);
      d.destination = local;
      d.payload.assign(bufs[i], bufs[i] + len);
      Deliver(socket, std::move(d));
    }
    // A short batch means the queue was empty; the fd is level-triggered,
    // so epoll reports anything that arrived since.
    if (static_cast<unsigned>(n) < kBatch) {
      return;
    }
  }
}

}  // namespace circus::rt
