// The benchmark's measurement layer: clocks, spans, op records, process and
// registry snapshots, and the metric list a run reports.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a library module (pbio, transport, core, http, format service); the
// library itself is not instrumented for this. Every span stores wall time
// and the calling thread's CPU time, so wall - cpu is time the layer spent
// waiting (on a peer, a socket, a lock) rather than working; see can_wait()
// for the layers whose CPU time is read rather than equal to wall. Spans
// carry the
// id of the operation they belong to; for work done on a server thread the
// id is read back out of the message itself, so the two sides of one round
// trip line up.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace omfbench {

std::uint64_t now_ns() noexcept;         ///< steady_clock
std::uint64_t thread_cpu_ns() noexcept;  ///< CLOCK_THREAD_CPUTIME_ID

/// Layers a span can be charged to. Their metric names (workloads.cpp)
/// match the obs registry's families where one exists.
enum class Layer : std::uint8_t {
  kEncode,           ///< pbio::encode
  kDecode,           ///< pbio::Decoder::decode
  kDecodeBatch,      ///< pbio::Decoder::decode_batch
  kPeekFormatId,     ///< pbio::Decoder::peek_format_id
  kPlanFor,          ///< pbio::Decoder::plan_for
  kSend,             ///< transport send (NdrConnection, RemotePublisher)
  kReceive,          ///< transport receive (NdrConnection, RemoteSubscription)
  kContext,          ///< core::Context construction
  kDiscoverFormat,   ///< core::Context::discover_format (HTTP + xml2wire)
  kFormatFetch,      ///< transport::FormatServiceClient::fetch
  kBackbonePublish,  ///< transport::RemotePublisher::publish
  kCheck,            ///< the benchmark's own output check
  kCount
};

struct SpanRecord {
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  Layer layer = Layer::kCount;
};

struct OpRecord {
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One thread's spans and ops. A recording thread owns its log outright;
/// logs are merged only after the thread has been joined.
struct SpanLog {
  std::vector<SpanRecord> spans;
  std::vector<OpRecord> ops;
};

/// True for layers that can block on a peer, a socket or a lock. Only
/// their spans read the thread CPU clock (a system call on many virtual
/// machines, several hundred nanoseconds); the others are pure computation
/// on the calling thread, whose CPU time is their wall time.
constexpr bool can_wait(Layer layer) noexcept {
  return layer == Layer::kSend || layer == Layer::kReceive ||
         layer == Layer::kContext || layer == Layer::kDiscoverFormat ||
         layer == Layer::kFormatFetch || layer == Layer::kBackbonePublish;
}

/// Times one call. With a null log nothing is read or recorded, so the
/// untraced path costs a branch.
class Span {
public:
  Span(SpanLog* log, Layer layer, std::uint64_t op) noexcept
      : log_(log), layer_(layer), op_(op) {
    if (log_ != nullptr) {
      if (can_wait(layer_)) cpu_ = thread_cpu_ns();
      start_ = now_ns();
    }
  }
  ~Span() {
    if (log_ != nullptr) {
      std::uint64_t wall = now_ns() - start_;
      std::uint64_t cpu = can_wait(layer_) ? thread_cpu_ns() - cpu_ : wall;
      log_->spans.push_back({op_, start_, wall, cpu, layer_});
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  SpanLog* log_;
  Layer layer_;
  std::uint64_t op_;
  std::uint64_t start_ = 0;
  std::uint64_t cpu_ = 0;
};

/// Alternating traced / untraced windows inside a traced run, so the
/// tracing overhead is measured in the same process under the same load.
/// Every thread evaluates the schedule from the shared start time; no
/// shared mutable state is involved.
class TraceSchedule {
public:
  static constexpr std::uint64_t kWindowNs = 200'000'000;

  TraceSchedule(bool enabled, std::uint64_t t0) : enabled_(enabled), t0_(t0) {}

  bool traced_at(std::uint64_t t) const noexcept {
    return enabled_ && t >= t0_ && ((t - t0_) / kWindowNs) % 2 == 1;
  }
  bool traced_now() const noexcept { return traced_at(now_ns()); }

private:
  bool enabled_;
  std::uint64_t t0_;
};

/// Per-layer totals over the traced ops of a run.
struct LayerTotals {
  double wall_ns = 0;
  double cpu_ns = 0;
  std::uint64_t spans = 0;
};

struct LedgerSummary {
  std::uint64_t ops = 0;
  double op_wall_ns = 0;  ///< summed over traced ops
  std::vector<LayerTotals> layers =
      std::vector<LayerTotals>(static_cast<std::size_t>(Layer::kCount));
  /// Share of traced op wall time covered by no span on any thread.
  double unattributed_ratio = 0;

  const LayerTotals& at(Layer l) const {
    return layers[static_cast<std::size_t>(l)];
  }
  double mean(Layer l) const {
    return at(l).spans ? at(l).wall_ns / at(l).spans : 0;
  }
};

/// Folds every thread's log into per-layer totals. Only spans whose op id
/// belongs to a recorded op count, and each span's wall is clipped to its
/// op's interval (see the receive rule in ledger.cpp).
LedgerSummary summarize(const std::vector<const SpanLog*>& logs);

/// Process resource usage (getrusage RUSAGE_SELF, /proc/self/status).
struct ProcUsage {
  double cpu_s = 0;  ///< user + system
  std::uint64_t vcsw = 0;
  /// VmHWM: this image's peak RSS (ru_maxrss would report the larger RSS
  /// of whatever process exec'd us).
  double peak_rss_mb = 0;
  static ProcUsage now();
};

/// Log-linear latency histogram: exact below 64 ns, then 64 buckets per
/// power of two (under 1.6 % wide). Its size is fixed, so the benchmark's
/// own footprint does not grow with throughput and rss_peak_mb stays a
/// property of the program. A quantile reads as the mean of the samples in
/// its bucket, so it moves with the data instead of snapping to bucket
/// edges.
class LatencyHistogram {
public:
  void add(std::uint64_t ns) noexcept;
  void merge(const LatencyHistogram& other) noexcept;
  std::uint64_t count() const noexcept { return count_; }
  /// The q-quantile in microseconds (0 when empty).
  double quantile_us(double q) const noexcept;

private:
  static constexpr unsigned kSub = 64;
  static constexpr unsigned kBuckets = kSub * 36;  // up to ~2^39 ns
  std::array<std::uint32_t, kBuckets> counts_{};
  std::array<std::uint64_t, kBuckets> sums_{};
  std::uint64_t count_ = 0;
};

/// What completed in one interval of a measured window.
struct IntervalStats {
  std::uint64_t ops = 0;
  double payload_bytes = 0;
  LatencyHistogram latency;
};

/// One thread's completed ops, bucketed by the interval of the measured
/// window they finished in. End-to-end figures are medians over intervals,
/// so a burst of interference from outside the benchmark moves a few
/// intervals rather than the result. Ops finishing outside the window's
/// whole intervals are not bucketed.
class IntervalLog {
public:
  static constexpr std::uint64_t kIntervalNs = 250'000'000;

  IntervalLog() = default;
  IntervalLog(std::uint64_t t0, double seconds);

  /// Records `ops` ops finished at `end_ns` and one latency sample.
  void add(std::uint64_t end_ns, std::uint64_t ops, double payload_bytes,
           std::uint64_t latency_ns);
  /// Folds `other` (same window) into this log.
  void merge(const IntervalLog& other);
  const std::vector<IntervalStats>& intervals() const { return slots_; }

private:
  std::uint64_t t0_ = 0;
  std::vector<IntervalStats> slots_;
};

/// Process CPU seconds at each interval boundary of a window that starts
/// at t0 (n + 1 samples for n intervals). Sleeps until each boundary, so
/// the measuring thread calls it while the workload's threads run.
std::vector<double> sample_cpu(std::uint64_t t0, std::size_t intervals);

/// Flat copy of the obs registry: counters and gauges under their own name,
/// histograms as "<name>.count" and "<name>.sum".
using RegistryValues = std::map<std::string, double>;
RegistryValues registry_values();
/// after - before for every key (gauges included, as a difference).
double delta(const RegistryValues& before, const RegistryValues& after,
             const std::string& key);

double median(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t latency_samples = 0;  ///< behind the latency quantiles
  bool valid = true;          ///< false: the run's own schedule was not met
  std::string invalid_reason;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

}  // namespace omfbench
