#include "common.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace perfbench {

namespace {
const Clock::time_point g_epoch = Clock::now();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

Clock::time_point at_ns(std::int64_t ns) {
  return g_epoch + std::chrono::nanoseconds(ns);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<double> steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/stat");
  std::vector<double> out;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned cpu = 0;
    unsigned long long v[8] = {};
    // "cpuN user nice system idle iowait irq softirq steal ..."; the
    // aggregate "cpu " line does not match "cpu%u".
    if (std::sscanf(line, "cpu%u %llu %llu %llu %llu %llu %llu %llu %llu", &cpu,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 9) {
      if (out.size() <= cpu) out.resize(cpu + 1, 0.0);
      out[cpu] = static_cast<double>(v[7]);
    }
  }
  std::fclose(f);
  return out;
}

std::vector<std::size_t> quieter_half(const std::vector<double>& steal) {
  std::vector<std::size_t> idx(steal.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  idx.resize(std::max<std::size_t>(1, (idx.size() + 1) / 2));
  std::sort(idx.begin(), idx.end());
  return idx;
}

double median_of(const std::vector<double>& v, const std::vector<std::size_t>& keep) {
  std::vector<double> picked;
  for (const std::size_t i : keep) picked.push_back(v[i]);
  return median(picked);
}

double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

namespace {
void pin(pid_t tid, long cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu), &set);
  sched_setaffinity(tid, sizeof set, &set);  // best effort
}
}  // namespace

void pin_threads(bool one_cpu) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  std::vector<pid_t> tids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    tids.push_back(static_cast<pid_t>(std::stol(entry.path().filename().string())));
  }
  std::sort(tids.begin(), tids.end());
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  pin(self, 0);
  long next = 0;
  for (const pid_t tid : tids) {
    if (tid == self) continue;
    pin(tid, one_cpu || cpus < 2 ? 0 : 1 + next++ % (cpus - 1));
  }
}

void spin_ns(std::int64_t ns) {
  if (ns <= 0) return;
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

Registry Registry::read() {
  namespace m = ccvc::util::metrics;
  const auto count = [](const char* name) {
    return static_cast<double>(
        m::counter(name).value.load(std::memory_order_relaxed));
  };
  const m::Histogram& stamp = m::histogram("engine.wire.stamp_bytes");
  Registry r;
  r.notifier_transforms = count("engine.notifier.transforms");
  r.notifier_ops = count("engine.notifier.ops_executed");
  r.client_transforms = count("engine.client.transforms");
  r.client_remote_ops = count("engine.client.ops_executed_remote");
  r.batch_flushes = count("engine.batch.flushes");
  r.batch_msgs = count("engine.batch.msgs");
  r.stamp_bytes_sum = static_cast<double>(stamp.sum());
  r.stamp_bytes_count = static_cast<double>(stamp.count());
  return r;
}

Registry Registry::operator-(const Registry& o) const {
  Registry r;
  r.notifier_transforms = notifier_transforms - o.notifier_transforms;
  r.notifier_ops = notifier_ops - o.notifier_ops;
  r.client_transforms = client_transforms - o.client_transforms;
  r.client_remote_ops = client_remote_ops - o.client_remote_ops;
  r.batch_flushes = batch_flushes - o.batch_flushes;
  r.batch_msgs = batch_msgs - o.batch_msgs;
  r.stamp_bytes_sum = stamp_bytes_sum - o.stamp_bytes_sum;
  r.stamp_bytes_count = stamp_bytes_count - o.stamp_bytes_count;
  return r;
}

double histogram_quantile(const ccvc::util::metrics::Histogram& h, double q) {
  using ccvc::util::metrics::Histogram;
  const auto buckets = h.buckets();
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const auto n = static_cast<double>(buckets[i]);
    if (n > 0 && seen + n >= rank) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(Histogram::bucket_limit(i - 1));
      const double hi = static_cast<double>(Histogram::bucket_limit(i));
      return lo + (hi - lo) * (rank - seen) / n;
    }
    seen += n;
  }
  return static_cast<double>(h.max());
}

double Options::num(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) throw std::runtime_error("missing parameter " + key);
  return std::stod(it->second);
}

std::string Options::str(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) throw std::runtime_error("missing parameter " + key);
  return it->second;
}

}  // namespace perfbench
