#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <thread>

#include "arch/profile.hpp"

#ifndef OMFBENCH_BUILD_TYPE
#define OMFBENCH_BUILD_TYPE "unknown"
#endif

namespace omfbench {

namespace {

/// Wall seconds for `threads` threads each running a fixed dependent
/// multiply-add chain (no memory traffic, no sharing).
double control_loop(unsigned threads) {
  constexpr std::uint64_t kIters = 16'000'000;
  std::atomic<std::uint64_t> sink{0};
  std::uint64_t t0 = now_ns();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      std::uint64_t x = t + 1;
      for (std::uint64_t i = 0; i < kIters; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Per-layer metric names with units, in report order: BENCHMARK.json's
/// per_layer list.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"transport.send.ns", "ns"},
      {"transport.send.cpu_ns", "ns"},
      {"transport.receive.ns", "ns"},
      {"transport.receive.cpu_ns", "ns"},
      {"transport.frames_tx_per_op", "count"},
      {"transport.frames_rx_per_op", "count"},
      {"transport.bytes_tx_per_op", "bytes"},
      {"proc.vcsw_per_op", "count"},
      {"pbio.encode.ns", "ns"},
      {"pbio.decode.ns", "ns"},
      {"pbio.arena.chunk_allocs_per_op", "count"},
      {"pbio.decode_batch.ns_per_msg", "ns"},
      {"pbio.peek_format_id.ns", "ns"},
      {"pbio.plan_for.ns", "ns"},
      {"pbio.decode.batch_messages", "count"},
      {"pbio.decode.in_place_share", "ratio"},
      {"core.context.ns", "ns"},
      {"core.discover_format.ns", "ns"},
      {"discovery.fetch_ns", "ns"},
      {"transport.format_service.fetch.ns", "ns"},
      {"pbio.plan_cache.compiles_per_op", "count"},
      {"pbio.plan_cache.compile_ns", "ns"},
      {"http.server.requests_per_op", "count"},
      {"transport.backbone.publish.ns", "ns"},
      {"transport.backbone.delivered_per_op", "count"},
      {"transport.backbone.shed", "count"},
      {"transport.backbone.subscriber_dropped", "count"},
      {"transport.backbone.queue_depth_max", "count"},
      {"bench.gen_lag_p99_us", "us"},
      {"bench.check.ns", "ns"},
      {"bench.pbio_share", "ratio"},
      {"bench.unattributed_ratio", "ratio"},
      {"bench.trace_overhead_ratio", "ratio"},
      {"bench.op_wall_us", "us"},
      {"bench.error_ratio", "ratio"},
  };
  return kNames;
}

}  // namespace

const HostInfo& host_info() {
  static const HostInfo info = [] {
    HostInfo h;
    h.nproc = std::thread::hardware_concurrency();
    h.simd_tier_name = omf::arch::simd_tier_name(omf::arch::simd_tier());
#if defined(__clang__)
    h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    h.compiler = std::string("gcc ") + __VERSION__;
#else
    h.compiler = "unknown";
#endif
    h.build_type = OMFBENCH_BUILD_TYPE;
    double one = control_loop(1);
    double two = control_loop(2);
    h.parallel_control_ratio = two > 0 ? 2.0 * one / two : 0;
    return h;
  }();
  return info;
}

void split_traced_time(const TraceSchedule& schedule, std::uint64_t t0,
                       std::uint64_t t1, Window& w) {
  w.traced_s = 0;
  w.untraced_s = 0;
  for (std::uint64_t a = t0; a < t1; a += TraceSchedule::kWindowNs) {
    double len =
        static_cast<double>(std::min(t1, a + TraceSchedule::kWindowNs) - a) /
        1e9;
    (schedule.traced_at(a) ? w.traced_s : w.untraced_s) += len;
  }
}

RunResult finish(const RunConfig& cfg, double setup_s, Window& w) {
  RunResult r;
  r.attempted = w.ops;
  r.failed = w.failed;
  r.valid = w.valid;
  r.invalid_reason = w.invalid_reason;
  r.correct = w.failed == 0 && w.ops > 0;
  const double good = static_cast<double>(w.ops - w.failed);
  auto per_good = [&](double x) { return good > 0 ? x / good : 0.0; };

  std::vector<double> rate, mb_per_s, cpu_per_op, p50, p99;
  const double secs = static_cast<double>(IntervalLog::kIntervalNs) / 1e9;
  const auto& intervals = w.intervals.intervals();
  for (std::size_t k = 0; k < intervals.size(); ++k) {
    const IntervalStats& in = intervals[k];
    rate.push_back(static_cast<double>(in.ops) / secs);
    mb_per_s.push_back(in.payload_bytes / secs / 1e6);
    if (in.ops > 0 && k + 1 < w.cpu_s.size()) {
      cpu_per_op.push_back((w.cpu_s[k + 1] - w.cpu_s[k]) * 1e6 /
                           static_cast<double>(in.ops));
    }
    r.latency_samples += in.latency.count();
    if (in.latency.count() > 0) {
      p50.push_back(in.latency.quantile_us(0.50));
      p99.push_back(in.latency.quantile_us(0.99));
    }
  }

  if (!cfg.trace) {
    r.end_to_end = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", w.open_loop ? good / w.wall_s : median(rate), "1/s"},
        {"latency_p50_us", median(p50), "us"},
        {"latency_p99_us", median(p99), "us"},
        {"payload_mb_per_s",
         w.open_loop ? w.payload_bytes / w.wall_s / 1e6 : median(mb_per_s),
         "MB/s"},
        {"cpu_us_per_op",
         w.open_loop ? per_good((w.usage_after.cpu_s - w.usage_before.cpu_s -
                                 w.wait_cpu_s) *
                                1e6)
                     : median(cpu_per_op),
         "us"},
        {"rss_peak_mb", w.usage_after.peak_rss_mb, "MB"},
    };
    return r;
  }

  LedgerSummary s = summarize(w.logs);
  const double traced = static_cast<double>(w.traced_ops);
  auto per_traced = [&](double x) { return traced > 0 ? x / traced : 0.0; };
  auto reg = [&](const std::string& key) {
    return delta(w.reg_before, w.reg_after, key);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::map<std::string, double> v;
  v["transport.send.ns"] = per_traced(s.at(Layer::kSend).wall_ns);
  v["transport.send.cpu_ns"] = per_traced(s.at(Layer::kSend).cpu_ns);
  v["transport.receive.ns"] = per_traced(s.at(Layer::kReceive).wall_ns);
  v["transport.receive.cpu_ns"] = per_traced(s.at(Layer::kReceive).cpu_ns);
  v["transport.frames_tx_per_op"] = per_good(reg("transport.frames_tx"));
  v["transport.frames_rx_per_op"] = per_good(reg("transport.frames_rx"));
  v["transport.bytes_tx_per_op"] = per_good(reg("transport.bytes_tx"));
  v["proc.vcsw_per_op"] = per_good(
      static_cast<double>(w.usage_after.vcsw - w.usage_before.vcsw));
  v["pbio.encode.ns"] = per_traced(s.at(Layer::kEncode).wall_ns);
  v["pbio.decode.ns"] = per_traced(s.at(Layer::kDecode).wall_ns);
  v["pbio.arena.chunk_allocs_per_op"] = per_good(reg("pbio.arena.chunk_allocs"));
  v["pbio.decode_batch.ns_per_msg"] =
      per_traced(s.at(Layer::kDecodeBatch).wall_ns);
  v["pbio.peek_format_id.ns"] = per_traced(s.at(Layer::kPeekFormatId).wall_ns);
  v["pbio.plan_for.ns"] = s.mean(Layer::kPlanFor);
  v["pbio.decode.batch_messages"] =
      ratio(reg("pbio.decode.batch_messages.sum"),
            reg("pbio.decode.batch_messages.count"));
  v["pbio.decode.in_place_share"] =
      ratio(reg("pbio.decode.in_place"), reg("pbio.decode.messages"));
  v["core.context.ns"] = per_traced(s.at(Layer::kContext).wall_ns);
  v["core.discover_format.ns"] =
      per_traced(s.at(Layer::kDiscoverFormat).wall_ns);
  v["discovery.fetch_ns"] =
      ratio(reg("discovery.fetch_ns.sum"), reg("discovery.fetch_ns.count"));
  v["transport.format_service.fetch.ns"] =
      per_traced(s.at(Layer::kFormatFetch).wall_ns);
  v["pbio.plan_cache.compiles_per_op"] =
      per_good(reg("pbio.plan_cache.compiles"));
  v["pbio.plan_cache.compile_ns"] =
      ratio(reg("pbio.plan_cache.compile_ns.sum"),
            reg("pbio.plan_cache.compile_ns.count"));
  v["http.server.requests_per_op"] = per_good(reg("http.server.requests"));
  v["transport.backbone.publish.ns"] =
      per_traced(s.at(Layer::kBackbonePublish).wall_ns);
  v["transport.backbone.delivered_per_op"] =
      per_good(reg("transport.backbone.delivered"));
  v["transport.backbone.shed"] = reg("transport.backbone.shed");
  v["transport.backbone.subscriber_dropped"] =
      reg("transport.backbone.subscriber_dropped");
  v["bench.check.ns"] = per_traced(s.at(Layer::kCheck).wall_ns);
  double pbio_wall = 0;
  for (Layer l : {Layer::kEncode, Layer::kDecode, Layer::kDecodeBatch,
                  Layer::kPeekFormatId, Layer::kPlanFor}) {
    pbio_wall += s.at(l).wall_ns;
  }
  // Of the op time not spent in the benchmark's own output checks.
  v["bench.pbio_share"] =
      ratio(pbio_wall, s.op_wall_ns - s.at(Layer::kCheck).wall_ns);
  v["bench.unattributed_ratio"] = s.unattributed_ratio;
  v["bench.trace_overhead_ratio"] =
      ratio(ratio(traced, w.traced_s),
            ratio(static_cast<double>(w.untraced_ops), w.untraced_s));
  v["bench.op_wall_us"] = ratio(s.op_wall_ns, static_cast<double>(s.ops)) / 1e3;
  v["bench.error_ratio"] =
      ratio(static_cast<double>(w.failed), static_cast<double>(w.ops));
  for (const Metric& m : w.extra_layers) v[m.name] = m.value;

  for (const auto& [name, unit] : per_layer_names()) {
    auto it = v.find(name);
    r.per_layer.push_back({name, it == v.end() ? 0.0 : it->second, unit});
    if (it != v.end()) v.erase(it);
  }
  if (!v.empty()) {
    throw std::logic_error("per-layer metric missing from the name table: " +
                           v.begin()->first);
  }
  return r;
}

void corrupt(Message& m) { m.wire.data()[m.wire.size() - 4] ^= 0x40; }

void corrupt_one_payload(Corpus& corpus) {
  for (std::uint32_t idx : corpus.order) {
    Message& m = corpus.messages[idx];
    if (corpus.schemas[corpus.types[m.type].schema].type == "Payload") {
      corrupt(m);
      return;
    }
  }
  throw std::logic_error("corpus has no Payload message to corrupt");
}

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"rpc-small", run_rpc_small, rpc_small_corpus, true},
      {"decode-hetero", run_decode_hetero, decode_hetero_corpus, false},
      {"join-churn", run_join_churn, join_churn_corpus, true},
      {"pubsub-open", run_pubsub_open, pubsub_open_corpus, true},
  };
  return kWorkloads;
}

}  // namespace omfbench
