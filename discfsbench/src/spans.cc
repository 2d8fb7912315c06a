#include "discfsbench/src/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace discfsbench {

using discfs::Bytes;
using discfs::InodeAttr;
using discfs::InodeNum;
using discfs::Result;
using discfs::Status;
using discfs::obs::CurrentTraceId;
using discfs::obs::MonotonicNanos;

namespace {

std::atomic<uint64_t> g_next_recorder_id{1};

}  // namespace

SpanRecorder::SpanRecorder() : id_(g_next_recorder_id.fetch_add(1)) {}

SpanRecorder::Buffer* SpanRecorder::LocalBuffer() {
  // Keyed by recorder id, not address, so a recorder allocated where a
  // destroyed one lived never inherits its buffer.
  thread_local uint64_t cached_id = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_id != id_) {
    auto buffer = std::make_unique<Buffer>();
    cached = buffer.get();
    cached_id = id_;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return cached;
}

void SpanRecorder::Record(const char* name, uint32_t depth, uint64_t trace_id,
                          uint64_t start_ns, uint64_t end_ns) {
  Buffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back({name, depth, trace_id, start_ns, end_ns});
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                   uint64_t lo, uint64_t hi) {
  for (auto& [s, e] : intervals) {
    s = std::clamp(s, lo, hi);
    e = std::clamp(e, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (const auto& [s, e] : intervals) {
    uint64_t from = std::max(s, cursor);
    if (e > from) {
      covered += e - from;
      cursor = e;
    }
  }
  return covered;
}

std::map<std::string, SpanTotals> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> by_trace;
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    uint64_t duration = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    t.count += 1;
    t.total_ns += duration;
    if (s.trace_id == 0) {
      t.self_ns += duration;  // background work has no request children
    } else {
      t.traced_total_ns += duration;
      by_trace[s.trace_id].push_back(&s);
    }
  }
  for (const auto& [trace, group] : by_trace) {
    for (const Span* s : group) {
      std::vector<std::pair<uint64_t, uint64_t>> children;
      for (const Span* c : group) {
        if (c->depth > s->depth) {
          children.push_back({c->start_ns, c->end_ns});
        }
      }
      uint64_t duration = s->end_ns > s->start_ns ? s->end_ns - s->start_ns : 0;
      uint64_t covered = CoveredNs(std::move(children), s->start_ns,
                                   std::max(s->start_ns, s->end_ns));
      totals[s->name].self_ns += duration - std::min(duration, covered);
    }
  }
  return totals;
}

bool DumpSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"depth\":%u,\"trace\":\"%016llx\","
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 s.name, s.depth, static_cast<unsigned long long>(s.trace_id),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------- TimedVfs

template <typename Fn>
auto TimedVfs::Timed(const char* name, Fn&& fn) -> decltype(fn()) {
  if (!recorder_->enabled()) {
    return fn();
  }
  uint64_t start = MonotonicNanos();
  auto result = fn();
  recorder_->Record(name, kDepthFfs, CurrentTraceId(), start,
                    MonotonicNanos());
  return result;
}

Result<InodeAttr> TimedVfs::GetAttr(InodeNum inode) {
  return Timed("ffs.getattr", [&] { return inner_->GetAttr(inode); });
}
Status TimedVfs::SetAttr(InodeNum inode,
                         const discfs::SetAttrRequest& request) {
  return Timed("ffs.setattr", [&] { return inner_->SetAttr(inode, request); });
}
Result<InodeAttr> TimedVfs::Lookup(InodeNum dir, const std::string& name) {
  return Timed("ffs.lookup", [&] { return inner_->Lookup(dir, name); });
}
Result<InodeAttr> TimedVfs::Create(InodeNum dir, const std::string& name,
                                   uint32_t mode) {
  return Timed("ffs.create", [&] { return inner_->Create(dir, name, mode); });
}
Result<InodeAttr> TimedVfs::Mkdir(InodeNum dir, const std::string& name,
                                  uint32_t mode) {
  return Timed("ffs.mkdir", [&] { return inner_->Mkdir(dir, name, mode); });
}
Result<InodeAttr> TimedVfs::Symlink(InodeNum dir, const std::string& name,
                                    const std::string& target) {
  return Timed("ffs.symlink",
               [&] { return inner_->Symlink(dir, name, target); });
}
Result<std::string> TimedVfs::ReadLink(InodeNum inode) {
  return Timed("ffs.readlink", [&] { return inner_->ReadLink(inode); });
}
Status TimedVfs::Link(InodeNum dir, const std::string& name, InodeNum target) {
  return Timed("ffs.link", [&] { return inner_->Link(dir, name, target); });
}
Status TimedVfs::Remove(InodeNum dir, const std::string& name) {
  return Timed("ffs.remove", [&] { return inner_->Remove(dir, name); });
}
Status TimedVfs::Rmdir(InodeNum dir, const std::string& name) {
  return Timed("ffs.rmdir", [&] { return inner_->Rmdir(dir, name); });
}
Status TimedVfs::Rename(InodeNum from_dir, const std::string& from_name,
                        InodeNum to_dir, const std::string& to_name) {
  return Timed("ffs.rename", [&] {
    return inner_->Rename(from_dir, from_name, to_dir, to_name);
  });
}
Result<size_t> TimedVfs::Read(InodeNum inode, uint64_t offset, size_t len,
                              uint8_t* out) {
  return Timed("ffs.read",
               [&] { return inner_->Read(inode, offset, len, out); });
}
Result<size_t> TimedVfs::Write(InodeNum inode, uint64_t offset,
                               const uint8_t* data, size_t len) {
  return Timed("ffs.write",
               [&] { return inner_->Write(inode, offset, data, len); });
}
Result<std::vector<discfs::DirEntry>> TimedVfs::ReadDir(InodeNum dir) {
  return Timed("ffs.readdir", [&] { return inner_->ReadDir(dir); });
}
Result<discfs::StatFsInfo> TimedVfs::StatFs() {
  return Timed("ffs.statfs", [&] { return inner_->StatFs(); });
}

// ------------------------------------------------------ TimedBlockDevice

Status TimedBlockDevice::Read(uint64_t block, uint8_t* buf) {
  uint64_t start = MonotonicNanos();
  Status st = inner_->Read(block, buf);
  uint64_t end = MonotonicNanos();
  uint64_t trace = CurrentTraceId();
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
  counters_.read_ns.fetch_add(end - start, std::memory_order_relaxed);
  if (trace != 0) {
    counters_.foreground_ns.fetch_add(end - start, std::memory_order_relaxed);
  }
  if (recorder_->enabled()) {
    recorder_->Record("blockdev.read", kDepthDevice, trace, start, end);
  }
  return st;
}

Status TimedBlockDevice::Write(uint64_t block, const uint8_t* buf) {
  uint64_t start = MonotonicNanos();
  Status st = inner_->Write(block, buf);
  uint64_t end = MonotonicNanos();
  uint64_t trace = CurrentTraceId();
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  counters_.write_ns.fetch_add(end - start, std::memory_order_relaxed);
  if (trace != 0) {
    counters_.foreground_ns.fetch_add(end - start, std::memory_order_relaxed);
  }
  if (recorder_->enabled()) {
    recorder_->Record("blockdev.write", kDepthDevice, trace, start, end);
  }
  return st;
}

// -------------------------------------------------------- CountingStream

Status CountingStream::Send(const Bytes& message) {
  Count(message.size());
  return inner_->Send(message);
}

Result<Bytes> CountingStream::Recv() {
  Result<Bytes> r = inner_->Recv();
  if (r.ok()) {
    Count(r->size());
  }
  return r;
}

Result<std::optional<Bytes>> CountingStream::TryRecv() {
  Result<std::optional<Bytes>> r = inner_->TryRecv();
  if (r.ok() && r->has_value()) {
    Count((*r)->size());
  }
  return r;
}

Result<bool> CountingStream::SendNonBlocking(const Bytes& message) {
  Count(message.size());
  return inner_->SendNonBlocking(message);
}

}  // namespace discfsbench
