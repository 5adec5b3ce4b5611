#include "ledger.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace omfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

LedgerSummary summarize(const std::vector<const SpanLog*>& logs) {
  LedgerSummary out;
  // An op seen by several threads (one message delivered to two
  // subscribers) spans from its earliest start to its latest end.
  std::unordered_map<std::uint64_t, OpRecord> ops;
  for (const SpanLog* log : logs) {
    for (const OpRecord& op : log->ops) {
      auto [it, fresh] = ops.try_emplace(op.op, op);
      if (!fresh) {
        it->second.start_ns = std::min(it->second.start_ns, op.start_ns);
        it->second.end_ns = std::max(it->second.end_ns, op.end_ns);
      }
    }
  }
  out.ops = ops.size();
  for (const auto& [id, op] : ops) {
    out.op_wall_ns += static_cast<double>(op.end_ns - op.start_ns);
  }

  std::vector<SpanRecord> spans;
  for (const SpanLog* log : logs) {
    for (const SpanRecord& s : log->spans) {
      if (ops.count(s.op) != 0) spans.push_back(s);
    }
  }
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.op != b.op ? a.op < b.op : a.start_ns < b.start_ns;
  });

  // Each span's wall is clipped to its op's interval. A receive is charged
  // from the moment the op's message was handed to the transport (the end
  // of its first send or publish) until the message came out: before that
  // the receiving thread was idle, not serving this op, and after it the
  // message was in flight or queued even while the receiver was busy with
  // an earlier one.
  double covered = 0;
  std::size_t i = 0;
  while (i < spans.size()) {
    const std::uint64_t id = spans[i].op;
    const OpRecord& op = ops.at(id);
    std::size_t end = i;
    std::uint64_t handoff = op.start_ns;
    bool handed = false;
    for (; end < spans.size() && spans[end].op == id; ++end) {
      const SpanRecord& s = spans[end];
      if (s.layer == Layer::kSend || s.layer == Layer::kBackbonePublish) {
        std::uint64_t e = s.start_ns + s.wall_ns;
        handoff = handed ? std::min(handoff, e) : e;
        handed = true;
      }
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> clipped;
    for (; i < end; ++i) {
      const SpanRecord& s = spans[i];
      std::uint64_t b = std::max(s.start_ns, op.start_ns);
      if (s.layer == Layer::kReceive && handed) b = handoff;
      std::uint64_t e = std::min(s.start_ns + s.wall_ns, op.end_ns);
      LayerTotals& t = out.layers[static_cast<std::size_t>(s.layer)];
      t.cpu_ns += static_cast<double>(s.cpu_ns);
      ++t.spans;
      if (e > b) {
        t.wall_ns += static_cast<double>(e - b);
        clipped.emplace_back(b, e);
      }
    }
    std::sort(clipped.begin(), clipped.end());
    std::uint64_t reach = op.start_ns;  // union coverage so far
    for (auto [b, e] : clipped) {
      b = std::max(b, reach);
      if (e > b) {
        covered += static_cast<double>(e - b);
        reach = e;
      }
    }
  }
  out.unattributed_ratio =
      out.op_wall_ns > 0 ? std::max(0.0, 1.0 - covered / out.op_wall_ns) : 0;
  return out;
}

ProcUsage ProcUsage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.vcsw = static_cast<std::uint64_t>(ru.ru_nvcsw);
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      u.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return u;
}

IntervalLog::IntervalLog(std::uint64_t t0, double seconds)
    : t0_(t0),
      slots_(std::max<std::size_t>(
          1, static_cast<std::size_t>(seconds * 1e9 /
                                      static_cast<double>(kIntervalNs)))) {}

void LatencyHistogram::add(std::uint64_t ns) noexcept {
  std::size_t idx = ns;
  if (ns >= kSub) {
    unsigned e = static_cast<unsigned>(std::bit_width(ns)) - 1;  // >= 6
    idx = kSub * (e - 5) + static_cast<std::size_t>((ns >> (e - 6)) - kSub);
  }
  idx = std::min<std::size_t>(idx, kBuckets - 1);
  ++counts_[idx];
  sums_[idx] += ns;
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts_[i] += other.counts_[i];
    sums_[i] += other.sums_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::quantile_us(double q) const noexcept {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  double below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    below += counts_[i];
    if (below > rank) {
      return static_cast<double>(sums_[i]) / counts_[i] / 1e3;
    }
  }
  return 0;
}

void IntervalLog::add(std::uint64_t end_ns, std::uint64_t ops,
                      double payload_bytes, std::uint64_t latency_ns) {
  if (end_ns < t0_) return;
  std::size_t k = (end_ns - t0_) / kIntervalNs;
  if (k >= slots_.size()) return;
  slots_[k].ops += ops;
  slots_[k].payload_bytes += payload_bytes;
  slots_[k].latency.add(latency_ns);
}

void IntervalLog::merge(const IntervalLog& other) {
  if (slots_.empty()) {
    *this = other;
    return;
  }
  for (std::size_t k = 0; k < slots_.size() && k < other.slots_.size(); ++k) {
    slots_[k].ops += other.slots_[k].ops;
    slots_[k].payload_bytes += other.slots_[k].payload_bytes;
    slots_[k].latency.merge(other.slots_[k].latency);
  }
}

std::vector<double> sample_cpu(std::uint64_t t0, std::size_t intervals) {
  std::vector<double> cpu;
  for (std::size_t k = 0; k <= intervals; ++k) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t0 + k * IntervalLog::kIntervalNs)));
    cpu.push_back(ProcUsage::now().cpu_s);
  }
  return cpu;
}

RegistryValues registry_values() {
  RegistryValues out;
  auto snap = omf::obs::MetricsRegistry::instance().snapshot();
  for (const auto& c : snap.counters) {
    out[c.name] = static_cast<double>(c.value);
  }
  for (const auto& g : snap.gauges) out[g.name] = static_cast<double>(g.value);
  for (const auto& h : snap.histograms) {
    out[h.name + ".count"] = static_cast<double>(h.count);
    out[h.name + ".sum"] = static_cast<double>(h.sum);
  }
  return out;
}

double delta(const RegistryValues& before, const RegistryValues& after,
             const std::string& key) {
  auto a = after.find(key);
  auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  auto mid = v.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace omfbench
