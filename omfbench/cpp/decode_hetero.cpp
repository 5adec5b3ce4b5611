// decode-hetero: in-process heterogeneous receive, no sockets. Two worker
// threads share one FormatRegistry and one process-wide PlanCache (the
// production shape of a multi-connection server) and each walks a seeded
// trace of wire messages from sparc64, sparc32, i386 and x86_64 senders.
// Consecutive same-format messages are grouped by peeking their format id
// and decoded with one decode_batch call. Plan lookup, plan execution and
// arena work are nearly all the time; the transport does nothing.
#include <thread>

#include "checksum.hpp"
#include "pbio/decode.hpp"
#include "workloads.hpp"

namespace omfbench {

namespace {

using omf::pbio::FormatHandle;
using omf::pbio::FormatId;

constexpr unsigned kThreads = 2;
constexpr std::size_t kMaxBatch = 32;

struct WorkerResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t traced_ops = 0;
  std::uint64_t untraced_ops = 0;
  double payload_bytes = 0;
  IntervalLog intervals;
  SpanLog log;
};

class DecodeHetero {
public:
  DecodeHetero(const RunConfig& cfg, Corpus corpus)
      : corpus_(std::move(corpus)) {
    if (cfg.corrupt) corrupt_one_payload(corpus_);
    native_ = register_schemas(registry_, corpus_, omf::arch::native());
    for (const auto* sender : hetero_senders()) {
      register_schemas(registry_, corpus_, *sender);
    }
    for (const auto& f : native_) {
      max_struct_ = std::max(max_struct_, f->struct_size());
    }
    // Compile every plan before the window: the measured steady state
    // performs lookups only.
    omf::pbio::Decoder decoder(registry_, cache_);
    std::vector<std::uint64_t> mem(max_struct_ / 8 + 1);
    omf::pbio::DecodeArena arena;
    std::vector<bool> seen(corpus_.types.size(), false);
    for (const Message& m : corpus_.messages) {
      if (seen[m.type]) continue;
      seen[m.type] = true;
      arena.reset();
      decoder.decode(m.wire.span(), *native_of(m), mem.data(), arena);
    }
  }

  Window measure(const RunConfig& cfg) {
    Window w;
    const std::uint64_t t0 = now_ns();
    const auto deadline = t0 + static_cast<std::uint64_t>(cfg.seconds * 1e9);
    const TraceSchedule schedule(cfg.trace, t0);
    w.reg_before = registry_values();
    w.usage_before = ProcUsage::now();
    std::vector<WorkerResult> results(kThreads);
    for (WorkerResult& r : results) r.intervals = IntervalLog(t0, cfg.seconds);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        work(t, deadline, schedule, results[t]);
      });
    }
    w.cpu_s = sample_cpu(t0, results[0].intervals.intervals().size());
    for (auto& th : workers) th.join();  // flushes batched counters
    const std::uint64_t t1 = now_ns();
    w.wall_s = static_cast<double>(t1 - t0) / 1e9;
    w.usage_after = ProcUsage::now();
    w.reg_after = registry_values();
    for (WorkerResult& r : results) {
      w.ops += r.ops;
      w.failed += r.failed;
      w.traced_ops += r.traced_ops;
      w.untraced_ops += r.untraced_ops;
      w.payload_bytes += r.payload_bytes;
      w.intervals.merge(r.intervals);
    }
    logs_.clear();
    for (WorkerResult& r : results) logs_.push_back(std::move(r.log));
    for (const SpanLog& log : logs_) w.logs.push_back(&log);
    split_traced_time(schedule, t0, t1, w);
    return w;
  }

private:
  const FormatHandle& native_of(const Message& m) const {
    return native_[corpus_.types[m.type].schema];
  }

  /// One worker: group, decode and check same-format runs until the
  /// deadline. An op in the ledger is one batch; ops_per_s counts messages.
  void work(unsigned thread, std::uint64_t deadline,
            const TraceSchedule& schedule, WorkerResult& r) {
    omf::pbio::Decoder decoder(registry_, cache_);
    omf::pbio::DecodeArena arena;
    const std::size_t stride = (max_struct_ + 15) / 16 * 16;
    std::vector<std::uint64_t> mem(kMaxBatch * stride / 8);
    std::vector<void*> outs(kMaxBatch);
    for (std::size_t k = 0; k < kMaxBatch; ++k) {
      outs[k] = reinterpret_cast<std::uint8_t*>(mem.data()) + k * stride;
    }
    std::vector<std::span<const std::uint8_t>> wires(kMaxBatch);
    std::vector<std::uint32_t> batch(kMaxBatch);
    const auto& order = corpus_.order;
    std::size_t pos = thread * order.size() / kThreads;
    // The first message of the next batch, already peeked.
    std::uint32_t next = order[pos % order.size()];
    FormatId next_id = omf::pbio::Decoder::peek_format_id(
        corpus_.messages[next].wire.span());
    ++pos;

    for (std::uint64_t b = 0; now_ns() < deadline; ++b) {
      const std::uint64_t start = now_ns();
      const bool traced = schedule.traced_at(start);
      SpanLog* log = traced ? &r.log : nullptr;
      const std::uint64_t op = (std::uint64_t{thread} << 48) | b;
      const FormatId id = next_id;
      std::size_t n = 0;
      batch[n++] = next;
      {
        Span s(log, Layer::kPeekFormatId, op);
        for (;;) {
          next = order[pos++ % order.size()];
          next_id = omf::pbio::Decoder::peek_format_id(
              corpus_.messages[next].wire.span());
          if (next_id != id || n == kMaxBatch) break;
          batch[n++] = next;
        }
      }
      for (std::size_t k = 0; k < n; ++k) {
        wires[k] = corpus_.messages[batch[k]].wire.span();
      }
      const FormatHandle& native_handle = native_of(corpus_.messages[batch[0]]);
      const omf::pbio::Format& native = *native_handle;
      if (log != nullptr) {
        // One steady-state lookup, probed in traced windows only.
        FormatHandle wire = registry_.by_id(id);
        Span s(log, Layer::kPlanFor, op);
        decoder.plan_for(wire, native_handle);
      }
      arena.reset();
      bool decoded = true;
      try {
        Span s(log, Layer::kDecodeBatch, op);
        decoder.decode_batch(wires.data(), n, native, outs.data(), arena);
      } catch (const std::exception&) {
        decoded = false;
      }
      std::uint64_t good = 0;
      double bytes = 0;
      {
        Span s(log, Layer::kCheck, op);
        for (std::size_t k = 0; k < n; ++k) {
          const Message& m = corpus_.messages[batch[k]];
          if (decoded && record_checksum(native, outs[k]) == m.checksum) {
            ++good;
            bytes += static_cast<double>(m.payload_bytes);
          }
        }
      }
      const std::uint64_t end = now_ns();
      r.ops += n;
      r.failed += n - good;
      r.payload_bytes += bytes;
      r.intervals.add(end, good, bytes, end - start);
      (traced ? r.traced_ops : r.untraced_ops) += n;
      if (traced) r.log.ops.push_back({op, start, end});
    }
  }

  Corpus corpus_;
  omf::pbio::FormatRegistry registry_;
  std::shared_ptr<omf::pbio::PlanCache> cache_ =
      std::make_shared<omf::pbio::PlanCache>();
  std::vector<FormatHandle> native_;
  std::size_t max_struct_ = 0;
  std::vector<SpanLog> logs_;
};

}  // namespace

RunResult run_decode_hetero(const RunConfig& cfg) {
  return run_fixture<DecodeHetero>(cfg, decode_hetero_corpus);
}

}  // namespace omfbench
