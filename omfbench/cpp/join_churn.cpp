// join-churn: closed loop of cold subscriber joins on one thread. Each join
// builds a fresh core::Context, discovers its native format over HTTP
// (Context::discover_format against an http::Server), fetches the sender's
// wire format by id from a FormatServiceServer, compiles the plan and
// decodes a handful of that sender's messages. This is the metadata path —
// xml, schema, xml2wire, audit, HTTP, the format service — with registry
// and plan-cache writes, which the other workloads only read.
#include <memory>
#include <thread>

#include "checksum.hpp"
#include "core/context.hpp"
#include "http/http.hpp"
#include "transport/format_service.hpp"
#include "workloads.hpp"

namespace omfbench {

namespace {

using omf::pbio::FormatHandle;

constexpr std::size_t kMessagesPerType = 4;  // see join_churn_corpus

class JoinChurn {
public:
  JoinChurn(const RunConfig& cfg, Corpus corpus)
      : corpus_(std::move(corpus)) {
    if (cfg.corrupt) {
      for (std::uint32_t t : corpus_.order) {
        if (corpus_.schemas[corpus_.types[t].schema].type == "Payload") {
          corrupt(corpus_.messages[t * kMessagesPerType]);
          break;
        }
      }
    }
    for (const Schema& s : corpus_.schemas) {
      std::string path = "/schemas/" + s.type + ".xsd";
      http_.put_document(path, s.xsd);
      urls_.push_back(http_.url_for(path));
    }
    // The format service holds every sender's formats, as the senders
    // would have pushed them.
    omf::pbio::FormatRegistry senders;
    for (const MessageType& t : corpus_.types) {
      auto formats = register_schemas(senders, corpus_, *t.sender);
      formats_.publish(*formats[t.schema]);
      wire_ids_.push_back(formats[t.schema]->id());
    }
    // 16 joins x 4 decodes: a multiple of the library's 64-message counter
    // batching, so the registry is exact at the edges of the window.
    double bytes = 0;
    for (std::uint64_t op = 0; op < kWarmup; ++op) {
      if (!join(op, nullptr, bytes) && !cfg.corrupt) {
        throw std::runtime_error("join-churn: warm-up join failed");
      }
    }
  }

  Window measure(const RunConfig& cfg) {
    Window w;
    const std::uint64_t t0 = now_ns();
    const auto deadline = t0 + static_cast<std::uint64_t>(cfg.seconds * 1e9);
    const TraceSchedule schedule(cfg.trace, t0);
    w.intervals = IntervalLog(t0, cfg.seconds);
    w.reg_before = registry_values();
    w.usage_before = ProcUsage::now();
    std::thread joiner([&] {
      for (std::uint64_t op = kWarmup; now_ns() < deadline; ++op) {
        std::uint64_t start = now_ns();
        bool traced = schedule.traced_at(start);
        SpanLog* log = traced ? &log_ : nullptr;
        bool ok = false;
        double bytes = 0;
        try {
          ok = join(op, log, bytes);
        } catch (const std::exception&) {
        }
        std::uint64_t end = now_ns();
        ++w.ops;
        if (ok) {
          w.payload_bytes += bytes;
          w.intervals.add(end, 1, bytes, end - start);
        } else {
          ++w.failed;
        }
        if (log != nullptr) log->ops.push_back({op, start, end});
        ++(traced ? w.traced_ops : w.untraced_ops);
      }
    });
    w.cpu_s = sample_cpu(t0, w.intervals.intervals().size());
    joiner.join();  // flushes batched counters
    const std::uint64_t t1 = now_ns();
    w.wall_s = static_cast<double>(t1 - t0) / 1e9;
    w.usage_after = ProcUsage::now();
    w.reg_after = registry_values();
    split_traced_time(schedule, t0, t1, w);
    w.logs = {&log_};
    return w;
  }

private:
  static constexpr std::uint64_t kWarmup = 16;

  /// One cold join; false when a decoded record fails its check.
  bool join(std::uint64_t op, SpanLog* log, double& payload_bytes) {
    const std::uint32_t type = corpus_.order[op % corpus_.order.size()];
    const Schema& schema = corpus_.schemas[corpus_.types[type].schema];
    std::unique_ptr<omf::core::Context> ctx;
    {
      Span s(log, Layer::kContext, op);
      ctx = std::make_unique<omf::core::Context>();
    }
    FormatHandle native;
    {
      Span s(log, Layer::kDiscoverFormat, op);
      native = ctx->discover_format(urls_[corpus_.types[type].schema],
                                    schema.type);
    }
    FormatHandle wire;
    {
      Span s(log, Layer::kFormatFetch, op);
      wire = omf::transport::FormatServiceClient(formats_.port())
                 .fetch(ctx->registry(), wire_ids_[type]);
    }
    if (!wire) return false;
    {
      Span s(log, Layer::kPlanFor, op);
      ctx->decoder().plan_for(wire, native);
    }
    bool ok = true;
    std::vector<std::uint64_t> mem(native->struct_size() / 8 + 1);
    omf::pbio::DecodeArena arena;
    for (std::size_t k = 0; k < kMessagesPerType; ++k) {
      const Message& m = corpus_.messages[type * kMessagesPerType + k];
      arena.reset();
      {
        Span s(log, Layer::kDecode, op);
        ctx->decoder().decode(m.wire.span(), *native, mem.data(), arena);
      }
      Span s(log, Layer::kCheck, op);
      ok = ok && record_checksum(*native, mem.data()) == m.checksum;
      payload_bytes += static_cast<double>(m.payload_bytes);
    }
    Span s(log, Layer::kContext, op);
    ctx.reset();
    return ok;
  }

  Corpus corpus_;
  omf::http::Server http_;
  omf::transport::FormatServiceServer formats_;
  std::vector<std::string> urls_;  // per schema
  std::vector<omf::pbio::FormatId> wire_ids_;  // per type
  SpanLog log_;
};

}  // namespace

RunResult run_join_churn(const RunConfig& cfg) {
  return run_fixture<JoinChurn>(cfg, join_churn_corpus);
}

}  // namespace omfbench
