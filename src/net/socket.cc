#include "src/net/socket.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace circus::net {

DatagramSocket::DatagramSocket(Fabric* fabric, sim::Host* host)
    : fabric_(fabric), host_(host), incoming_(host) {
  CIRCUS_CHECK_MSG(host->up(), "cannot open socket on a crashed host");
}

DatagramSocket::DatagramSocket(Fabric* fabric, sim::Host* host, Port port)
    : DatagramSocket(fabric, host) {
  circus::StatusOr<NetAddress> bound = fabric_->Bind(this, port);
  CIRCUS_CHECK_MSG(bound.ok(), bound.status().ToString().c_str());
  FinishBind(*bound);
}

circus::StatusOr<std::unique_ptr<DatagramSocket>> DatagramSocket::Open(
    Fabric* fabric, sim::Host* host, Port port) {
  std::unique_ptr<DatagramSocket> socket(new DatagramSocket(fabric, host));
  circus::StatusOr<NetAddress> bound = fabric->Bind(socket.get(), port);
  if (!bound.ok()) {
    return bound.status();
  }
  socket->FinishBind(*bound);
  return socket;
}

void DatagramSocket::FinishBind(NetAddress local) {
  local_ = local;
  bound_ = true;
  crash_listener_ = host_->AddCrashListener([this] {
    // Fail-stop: the socket vanishes with the machine.
    fabric_->Unbind(this);
    bound_ = false;
    closed_ = true;
  });
}

DatagramSocket::~DatagramSocket() { Close(); }

void DatagramSocket::Close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  if (bound_) {
    fabric_->Unbind(this);
    bound_ = false;
    host_->RemoveCrashListener(crash_listener_);
  }
}

sim::Task<circus::Status> DatagramSocket::Send(NetAddress to,
                                               circus::Bytes payload) {
  if (!host_->up()) {
    throw sim::HostCrashedError();
  }
  if (closed_) {
    co_return circus::Status(circus::ErrorCode::kFailedPrecondition,
                             "send on closed socket");
  }
  co_await host_->DoSyscall(sim::Syscall::kSendMsg);
  fabric_->Transmit(host_, Datagram{local_, to, std::move(payload)});
  co_return circus::Status::Ok();
}

circus::Status DatagramSocket::SendRaw(NetAddress to, circus::Bytes payload) {
  if (!host_->up()) {
    throw sim::HostCrashedError();
  }
  if (closed_) {
    return circus::Status(circus::ErrorCode::kFailedPrecondition,
                          "send on closed socket");
  }
  fabric_->Transmit(host_, Datagram{local_, to, std::move(payload)});
  return circus::Status::Ok();
}

sim::Task<Datagram> DatagramSocket::ReceiveRaw() {
  std::optional<Datagram> d = co_await incoming_.Receive();
  CIRCUS_CHECK(d.has_value());
  co_return std::move(*d);
}

sim::Task<Datagram> DatagramSocket::Receive() {
  std::optional<Datagram> d = co_await incoming_.Receive();
  CIRCUS_CHECK(d.has_value());
  co_await host_->DoSyscall(sim::Syscall::kRecvMsg);
  co_return std::move(*d);
}

sim::Task<std::optional<Datagram>> DatagramSocket::ReceiveWithTimeout(
    sim::Duration timeout) {
  std::optional<Datagram> d = co_await incoming_.ReceiveWithTimeout(timeout);
  if (d.has_value()) {
    co_await host_->DoSyscall(sim::Syscall::kRecvMsg);
  }
  co_return std::move(d);
}

void DatagramSocket::JoinGroup(HostAddress group) {
  CIRCUS_CHECK(!closed_);
  fabric_->JoinGroup(group, this);
  joined_groups_.push_back(group);
}

void DatagramSocket::LeaveGroup(HostAddress group) {
  fabric_->LeaveGroup(group, this);
  std::erase(joined_groups_, group);
}

}  // namespace circus::net
