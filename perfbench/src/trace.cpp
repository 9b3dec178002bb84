#include "trace.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench::trace {

namespace {

constexpr std::array<const char*, static_cast<std::size_t>(Name::kCount)>
    kNames = {
        "sim.record",          "engine.parse",
        "engine.apply",        "engine.pre_broadcast",
        "engine.fanout",       "engine.post_broadcast",
        "engine.client_apply", "engine.client_generate",
        "engine.notifier_receive",
        "runtime.submit",      "runtime.drain",
        "runtime.notifier",    "runtime.inbox_wait",
        "load.generate",       "load.late",
        "load.deliver",
        "bench.serial_replay", "bench.pipeline_replay",
        "bench.egress",        "bench.live_phase",
};

// File layout (little-endian): "CCVCSPAN", u32 name count, per name a
// u16 length and its bytes, then fixed 56-byte records until EOF.
// summarize.py mirrors this struct as '<QQqqQQIHH'.
struct Record {
  std::uint64_t id;
  std::uint64_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t op_seq;
  std::uint64_t value;
  std::uint32_t op_site;
  std::uint16_t name;
  std::uint16_t thread;
};
static_assert(sizeof(Record) == 56);

struct Buffer {
  std::uint16_t thread = 0;
  std::vector<Record> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu
thread_local Buffer* t_buffer = nullptr;

Buffer& my_buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mu);
    auto buf = std::make_unique<Buffer>();
    buf->thread = static_cast<std::uint16_t>(g_buffers.size());
    buf->spans.reserve(1 << 16);
    t_buffer = buf.get();
    g_buffers.push_back(std::move(buf));
  }
  return *t_buffer;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t new_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void emit(std::uint64_t id, Name name, std::uint64_t parent,
          std::int64_t start_ns, std::int64_t end_ns, ccvc::OpId op,
          std::uint64_t value) {
  Buffer& buf = my_buffer();
  buf.spans.push_back(Record{id, parent, start_ns, end_ns, op.seq, value,
                             op.site, static_cast<std::uint16_t>(name),
                             buf.thread});
}

std::uint64_t write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  bool ok = std::fwrite("CCVCSPAN", 1, 8, f) == 8;
  const auto count = static_cast<std::uint32_t>(kNames.size());
  ok = ok && std::fwrite(&count, sizeof count, 1, f) == 1;
  for (const char* name : kNames) {
    const auto len = static_cast<std::uint16_t>(std::char_traits<char>::length(name));
    ok = ok && std::fwrite(&len, sizeof len, 1, f) == 1 &&
         std::fwrite(name, 1, len, f) == len;
  }
  std::uint64_t written = 0;
  const std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buf : g_buffers) {
    ok = ok && std::fwrite(buf->spans.data(), sizeof(Record),
                           buf->spans.size(), f) == buf->spans.size();
    written += buf->spans.size();
  }
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) throw std::runtime_error("short write to " + path);
  return written;
}

}  // namespace perfbench::trace
