// In-memory spans recorded by the benchmark's own code around each call
// it makes into a layer's public API (RpcProcess::Call, the replfs
// Client and Session calls, the echo handler). A span has a name, start,
// end and parent; the spans of one op share its logical thread. Spans are
// kept in memory while the traced window runs, written out once at the
// end, and reduced to each layer's self time: a span's duration minus
// the part of it that its children cover.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/types.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kOp,             // bench.op: one op, from its due/issue time to its end
  kCall,           // core.call: RpcProcess::Call
  kEchoHandler,    // app.echo_handler: the echo procedure at one member
  kTxnRun,         // replfs.run: Client::Run
  kTxnAttempt,     // replfs.attempt: one invocation of the txn body
  kOpen,           // replfs.open: Session::Open
  kWrite,          // replfs.write: Session::Write
  kClose,          // replfs.close: Session::Close
  kCommit,         // replfs.commit: last body end -> Run commits
  kRead,           // replfs.read: Client::ReadBlock
};

const char* SpanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kOp;
  int32_t parent = -1;  // index into the recorder, -1 for a root
  uint64_t thread = 0;  // packed core::ThreadId
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
};

uint64_t PackThread(const circus::core::ThreadId& thread);

struct SelfTime {
  uint64_t spans = 0;
  double self_us = 0;             // summed over spans
  std::vector<double> duration_us;  // per closed span
};

class SpanRecorder {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span; returns its index, or -1 when recording is off.
  int32_t Begin(SpanKind kind, int32_t parent, uint64_t thread,
                int64_t start_ns);
  // Closes span `index` (no-op for -1).
  void End(int32_t index, int64_t end_ns);
  // Records an already finished span.
  int32_t Add(SpanKind kind, int32_t parent, uint64_t thread,
              int64_t start_ns, int64_t end_ns);

  size_t size() const { return spans_.size(); }

  // One JSON object per line: name, start_ns, end_ns, parent, thread.
  bool WriteJsonl(const std::string& path) const;

  // Per span name: count, summed self time and each span's duration.
  // Spans still open are skipped.
  std::map<std::string, SelfTime> SelfTimes() const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
