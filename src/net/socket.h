// Datagram sockets over a net::Fabric (the simulated network or the
// real-time UDP fabric). A socket is bound to one (host, port) pair;
// sending charges the sendmsg system call and receiving charges recvmsg,
// reproducing the 4.2BSD cost structure the paper measured
// (Section 4.4.1) — under rt's wall-clock cost model the charges are
// zero and real syscalls cost real time instead. Hosts are single-homed
// in this reproduction; the paper's multi-homing workaround (an array of
// sockets multiplexed with select) is discussed in EXPERIMENTS.md but
// not modelled.
#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/net/address.h"
#include "src/net/fabric.h"
#include "src/sim/channel.h"
#include "src/sim/host.h"
#include "src/sim/task.h"

namespace circus::net {

class DatagramSocket {
 public:
  // Binds to `port` on `host`; port 0 picks an ephemeral port. The socket
  // detaches automatically when the host crashes. Bind failure is a
  // CIRCUS_CHECK here; use Open() where failure is recoverable.
  DatagramSocket(Fabric* fabric, sim::Host* host, Port port);
  DatagramSocket(const DatagramSocket&) = delete;
  DatagramSocket& operator=(const DatagramSocket&) = delete;
  ~DatagramSocket();

  // Status-returning variant of the constructor: fails with
  // kAlreadyExists on a taken port and kUnavailable when the ephemeral
  // range is exhausted, instead of aborting.
  static circus::StatusOr<std::unique_ptr<DatagramSocket>> Open(
      Fabric* fabric, sim::Host* host, Port port);

  sim::Host* host() const { return host_; }
  Fabric* fabric() const { return fabric_; }
  NetAddress local_address() const { return local_; }
  bool closed() const { return closed_; }

  // Sends one datagram (unicast or multicast destination). Charges one
  // sendmsg system call; completes after the syscall's CPU cost. Delivery
  // is unreliable per the fabric's fault plan. Fails with
  // kFailedPrecondition on a closed socket; a crashed host throws
  // sim::HostCrashedError as everywhere else.
  sim::Task<circus::Status> Send(NetAddress to, circus::Bytes payload);

  // Blocks until a datagram arrives; charges one recvmsg on wakeup.
  sim::Task<Datagram> Receive();

  // Blocks up to `timeout`; returns nullopt on timeout. Charges recvmsg
  // only when a datagram is actually received. The caller is responsible
  // for charging any timer-management syscalls it models (e.g. the UDP
  // echo test's setitimer pair, Figure 4.5).
  sim::Task<std::optional<Datagram>> ReceiveWithTimeout(
      sim::Duration timeout);

  // Kernel-level variants: no system-call charge. Used by protocols the
  // paper locates inside the kernel (the TCP analogue), whose per-packet
  // work is not visible as user-process system calls.
  circus::Status SendRaw(NetAddress to, circus::Bytes payload);
  sim::Task<Datagram> ReceiveRaw();
  // Direct access to the receive queue for kernel-level protocols that
  // need timeouts without recvmsg charges.
  sim::Channel<Datagram>& incoming_channel() { return incoming_; }

  void JoinGroup(HostAddress group);
  void LeaveGroup(HostAddress group);

  void Close();

  size_t queued() const { return incoming_.size(); }

 private:
  friend class Fabric;

  // Unbound socket; Bind() must succeed before it is usable.
  DatagramSocket(Fabric* fabric, sim::Host* host);

  // Completes construction after a successful Fabric::Bind.
  void FinishBind(NetAddress local);

  void EnqueueIncoming(Datagram d) { incoming_.Send(std::move(d)); }

  Fabric* fabric_;
  sim::Host* host_;
  NetAddress local_;
  sim::Channel<Datagram> incoming_;
  std::vector<HostAddress> joined_groups_;
  sim::Host::ListenerId crash_listener_ = 0;
  bool bound_ = false;
  bool closed_ = false;
};

}  // namespace circus::net

#endif  // SRC_NET_SOCKET_H_
