#include "perfbench/src/workload.h"

#include <algorithm>
#include <utility>

namespace perfbench {

Workload::Workload() : runtime_(std::make_unique<circus::rt::Runtime>()) {}

Workload::~Workload() { TearDown(); }

std::vector<circus::core::RpcProcess*> Workload::processes() const {
  std::vector<circus::core::RpcProcess*> out;
  for (const auto& p : processes_) {
    out.push_back(p.get());
  }
  return out;
}

Window* Workload::NewWindow() {
  windows_.push_back(std::make_unique<Window>());
  return windows_.back().get();
}

uint64_t Workload::Outstanding() const {
  uint64_t n = 0;
  for (const auto& w : windows_) {
    n += w->outstanding;
  }
  return n;
}

size_t Workload::TakeBacklogPeak() {
  return std::exchange(backlog_peak_, 0);
}

void Workload::SampleBacklog() {
  backlog_peak_ =
      std::max(backlog_peak_, runtime_->fabric().TotalReceiveBacklog());
}

circus::core::RpcProcess* Workload::AddProcess(const std::string& host_name) {
  circus::sim::Host* host = runtime_->AddHost(host_name);
  processes_.push_back(std::make_unique<circus::core::RpcProcess>(
      &runtime_->fabric(), host, 0));
  return processes_.back().get();
}

}  // namespace perfbench
