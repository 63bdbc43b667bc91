// Packet tap at the Fabric seam: mirrors every datagram a fabric
// carries — in both directions, with a clock-seam timestamp — into a
// bounded JSONL capture. The same tap serves the simulated Network and
// the real-time rt::UdpFabric, so a capture from either can be decoded
// and audited by the same tooling (src/obs/wire.h, `circus wire`).
//
// A capture is a JSONL file: a header object first ({"tap":
// "circus-wire", ...} with the tapping process's identity and clock
// domain), then one record per datagram. Like the trace ShardWriter,
// the writer buffers lines in a bounded ring and appends to disk only
// on Flush(), so the hot send/receive path never blocks on I/O;
// overflow drops the oldest unflushed records and leaves a counted
// {"dropped":N} marker so the auditor knows the capture is incomplete.
#ifndef SRC_NET_TAP_H_
#define SRC_NET_TAP_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/net/fabric.h"

namespace circus::net {

// One mirrored datagram. Send records are taken before fault injection
// (so a network-duplicated packet appears once on the send side, twice
// on the delivery side); delivery records carry the receiving socket's
// bound address as `destination` even when the datagram was addressed
// to a multicast group, so every record names the local party on both
// fabrics identically (rt's emulated multicast already rewrites the
// destination on receive).
struct WirePacket {
  int64_t time_ns = 0;
  bool send = false;  // true: entered the wire; false: delivered
  uint32_t host = 0;  // sim host id of the local party
  NetAddress source;
  NetAddress destination;
  circus::Bytes payload;
};

// Identity of the tapping process, recorded in the capture header.
struct WireTapInfo {
  std::string node;         // display name ("member-38302", "" in sim)
  std::string clock = "sim";  // "sim" (World) or "realtime" (rt)
};

class WireTapWriter : public PacketTap {
 public:
  // Opens `path` (truncating) and writes the header line immediately.
  // An empty `path` makes a ring-only writer: records are retained for
  // Recent() — the in-memory audit path the chaos harness uses — but
  // never hit disk. `clock` is the owning runtime's clock seam (sim
  // time in a World, the wall-seeded executor clock in rt). `capacity`
  // bounds both the recent-records ring and the unflushed line buffer.
  WireTapWriter(std::string path, WireTapInfo info,
                std::function<int64_t()> clock, size_t capacity = 65536);
  WireTapWriter(const WireTapWriter&) = delete;
  WireTapWriter& operator=(const WireTapWriter&) = delete;
  ~WireTapWriter() override;

  void Record(bool send, sim::Host* local, const Datagram& datagram) override;

  // Appends buffered lines to the file and fflushes. No-op for a
  // ring-only writer. kUnavailable on I/O error (lines kept for retry).
  circus::Status Flush();

  const WireTapInfo& info() const { return info_; }
  const std::string& path() const { return path_; }
  // False when a file capture could not be opened or its header failed
  // to write (a ring-only writer is always ok).
  bool ok() const {
    return path_.empty() || (file_ != nullptr && !header_write_failed_);
  }
  // The most recent records, oldest first (bounded by `capacity`).
  std::vector<WirePacket> Recent() const;
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::string path_;
  WireTapInfo info_;
  std::function<int64_t()> clock_;
  size_t capacity_;
  std::FILE* file_ = nullptr;
  bool header_write_failed_ = false;
  std::deque<WirePacket> recent_;
  std::deque<std::string> pending_lines_;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
  uint64_t dropped_unreported_ = 0;  // drops since the last flushed marker
};

// The canonical JSONL rendering of one record (no trailing newline);
// what the writer emits and ReadWireCaptureFile parses.
std::string WirePacketToJsonLine(const WirePacket& packet);

// One parsed capture file.
struct WireCaptureFile {
  WireTapInfo info;
  std::vector<WirePacket> records;
  uint64_t dropped = 0;       // sum of the file's drop markers
  size_t skipped_lines = 0;   // lines that were not records
  bool truncated_tail = false;  // partial final line (crash mid-flush)
};

// Reads and parses a capture. Fails only when the file cannot be read
// or the header line is missing/foreign; record lines that fail to
// parse are skipped (counted), and a partial final line is tolerated.
circus::StatusOr<WireCaptureFile> ReadWireCaptureFile(
    const std::string& path);

}  // namespace circus::net

#endif  // SRC_NET_TAP_H_
