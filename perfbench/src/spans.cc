#include "perfbench/src/spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp:
      return "bench.op";
    case SpanKind::kCall:
      return "core.call";
    case SpanKind::kEchoHandler:
      return "app.echo_handler";
    case SpanKind::kTxnRun:
      return "replfs.run";
    case SpanKind::kTxnAttempt:
      return "replfs.attempt";
    case SpanKind::kOpen:
      return "replfs.open";
    case SpanKind::kWrite:
      return "replfs.write";
    case SpanKind::kClose:
      return "replfs.close";
    case SpanKind::kCommit:
      return "replfs.commit";
    case SpanKind::kRead:
      return "replfs.read";
  }
  return "unknown";
}

uint64_t PackThread(const circus::core::ThreadId& thread) {
  return (static_cast<uint64_t>(thread.machine) << 32) |
         (static_cast<uint64_t>(thread.port) << 16) | thread.local;
}

int32_t SpanRecorder::Begin(SpanKind kind, int32_t parent, uint64_t thread,
                            int64_t start_ns) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back(Span{kind, parent, thread, start_ns, -1});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t index, int64_t end_ns) {
  if (index >= 0) {
    spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }
}

int32_t SpanRecorder::Add(SpanKind kind, int32_t parent, uint64_t thread,
                          int64_t start_ns, int64_t end_ns) {
  const int32_t index = Begin(kind, parent, thread, start_ns);
  End(index, end_ns);
  return index;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%d,\"thread\":%" PRIu64
                 "}\n",
                 SpanName(s.kind), s.start_ns, s.end_ns, s.parent, s.thread);
  }
  return std::fclose(out) == 0;
}

std::map<std::string, SelfTime> SpanRecorder::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) {
      continue;
    }
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, cursor);
      const int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const double duration_us =
        static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    SelfTime& t = out[SpanName(s.kind)];
    ++t.spans;
    t.self_us += duration_us - static_cast<double>(covered) / 1000.0;
    t.duration_us.push_back(duration_us);
  }
  return out;
}

}  // namespace perfbench
