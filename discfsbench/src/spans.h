// Tracing for the traced run. Spans are recorded only by the benchmark's
// own code: around each client call (depth 0), and inside three wrappers
// the benchmark hands the program in place of its plain objects — a Vfs
// around FfsVfs (depth 1), a BlockDevice between the block cache and the
// MemBlockDevice (depth 2), and a MsgStream around each client's
// TcpTransport (byte counts only). Server-side wrappers parent their spans
// on the request through obs::CurrentTraceId(), which the RPC runtime
// installs from the call trailer. I/O issued by the block cache's flusher
// carries no trace id and counts as background work; readahead runs on
// the reading thread and belongs to the request that triggered it.
#ifndef DISCFSBENCH_SRC_SPANS_H_
#define DISCFSBENCH_SRC_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/blockdev/blockdev.h"
#include "src/net/transport.h"
#include "src/vfs/vfs.h"

namespace discfsbench {

// Span depths: a span's children are the deeper spans of the same trace.
inline constexpr uint32_t kDepthClient = 0;
inline constexpr uint32_t kDepthFfs = 1;
inline constexpr uint32_t kDepthDevice = 2;

struct Span {
  const char* name = "";  // static string, e.g. "ffs.read"
  uint32_t depth = 0;
  uint64_t trace_id = 0;  // 0 = background (no request)
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// In-memory span store: one append buffer per recording thread, merged
// when the run ends.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const char* name, uint32_t depth, uint64_t trace_id,
              uint64_t start_ns, uint64_t end_ns);
  // Every span recorded so far, in no particular order.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  const uint64_t id_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Time spent in spans of one name: total duration and self time (duration
// minus the part of it covered by deeper spans of the same trace).
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t traced_total_ns = 0;  // duration of spans with a trace id
};
std::map<std::string, SpanTotals> SelfTimes(const std::vector<Span>& spans);

// Length of the union of [start, end) intervals clipped to [lo, hi).
uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                   uint64_t lo, uint64_t hi);

// Writes spans as JSON lines; returns false when the file cannot be
// written.
bool DumpSpans(const std::vector<Span>& spans, const std::string& path);

// Vfs wrapper recording one depth-1 span per call ("ffs.<op>").
class TimedVfs : public discfs::Vfs {
 public:
  TimedVfs(std::shared_ptr<discfs::Vfs> inner, SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  discfs::InodeNum root() const override { return inner_->root(); }
  discfs::Result<discfs::InodeAttr> GetAttr(discfs::InodeNum inode) override;
  discfs::Status SetAttr(discfs::InodeNum inode,
                         const discfs::SetAttrRequest& request) override;
  discfs::Result<discfs::InodeAttr> Lookup(discfs::InodeNum dir,
                                           const std::string& name) override;
  discfs::Result<discfs::InodeAttr> Create(discfs::InodeNum dir,
                                           const std::string& name,
                                           uint32_t mode) override;
  discfs::Result<discfs::InodeAttr> Mkdir(discfs::InodeNum dir,
                                          const std::string& name,
                                          uint32_t mode) override;
  discfs::Result<discfs::InodeAttr> Symlink(
      discfs::InodeNum dir, const std::string& name,
      const std::string& target) override;
  discfs::Result<std::string> ReadLink(discfs::InodeNum inode) override;
  discfs::Status Link(discfs::InodeNum dir, const std::string& name,
                      discfs::InodeNum target) override;
  discfs::Status Remove(discfs::InodeNum dir,
                        const std::string& name) override;
  discfs::Status Rmdir(discfs::InodeNum dir, const std::string& name) override;
  discfs::Status Rename(discfs::InodeNum from_dir,
                        const std::string& from_name,
                        discfs::InodeNum to_dir,
                        const std::string& to_name) override;
  discfs::Result<size_t> Read(discfs::InodeNum inode, uint64_t offset,
                              size_t len, uint8_t* out) override;
  discfs::Result<size_t> Write(discfs::InodeNum inode, uint64_t offset,
                               const uint8_t* data, size_t len) override;
  discfs::Result<std::vector<discfs::DirEntry>> ReadDir(
      discfs::InodeNum dir) override;
  discfs::Result<discfs::StatFsInfo> StatFs() override;

 private:
  template <typename Fn>
  auto Timed(const char* name, Fn&& fn) -> decltype(fn());

  std::shared_ptr<discfs::Vfs> inner_;
  SpanRecorder* recorder_;
};

// Device-call totals kept by TimedBlockDevice whether or not spans are
// being recorded.
struct DeviceCounters {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> read_ns{0};
  std::atomic<uint64_t> write_ns{0};
  std::atomic<uint64_t> foreground_ns{0};  // calls carrying a trace id
};

// BlockDevice wrapper under the block cache: one depth-2 span per call
// ("blockdev.read" / "blockdev.write").
class TimedBlockDevice : public discfs::BlockDevice {
 public:
  TimedBlockDevice(std::shared_ptr<discfs::BlockDevice> inner,
                   SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  discfs::Status Read(uint64_t block, uint8_t* buf) override;
  discfs::Status Write(uint64_t block, const uint8_t* buf) override;
  const discfs::BlockDeviceStats& stats() const override {
    return inner_->stats();
  }
  const DeviceCounters& counters() const { return counters_; }

 private:
  std::shared_ptr<discfs::BlockDevice> inner_;
  SpanRecorder* recorder_;
  DeviceCounters counters_;
};

// MsgStream wrapper counting framed bytes in both directions (payload
// plus the transport's 4-byte length prefix).
class CountingStream : public discfs::MsgStream {
 public:
  CountingStream(std::unique_ptr<discfs::MsgStream> inner,
                 std::atomic<uint64_t>* bytes)
      : inner_(std::move(inner)), bytes_(bytes) {}

  discfs::Status Send(const discfs::Bytes& message) override;
  discfs::Result<discfs::Bytes> Recv() override;
  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }
  int PollFd() const override { return inner_->PollFd(); }
  discfs::Result<std::optional<discfs::Bytes>> TryRecv() override;
  discfs::Result<bool> SendNonBlocking(
      const discfs::Bytes& message) override;
  discfs::Result<bool> FlushSend() override { return inner_->FlushSend(); }

 private:
  void Count(size_t payload) {
    bytes_->fetch_add(payload + 4, std::memory_order_relaxed);
  }

  std::unique_ptr<discfs::MsgStream> inner_;
  std::atomic<uint64_t>* bytes_;
};

}  // namespace discfsbench

#endif  // DISCFSBENCH_SRC_SPANS_H_
