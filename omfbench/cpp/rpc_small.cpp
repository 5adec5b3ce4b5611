// rpc-small: closed loop over one TCP loopback NdrConnection. The client
// encodes a small native record (a 16-double Payload alternating with the
// paper's Structure A), sends it, and waits; a server thread decodes the
// request and re-encodes it as the reply; the client decodes and checks
// the reply. Conversion is a fraction of a microsecond of a tens-of-
// microseconds round trip, so this workload measures the per-message fixed
// cost of framing, sockets, allocation and plan lookup.
#include <atomic>
#include <cstring>
#include <optional>
#include <thread>

#include "checksum.hpp"
#include "pbio/decode.hpp"
#include "pbio/encode.hpp"
#include "transport/ndr_connection.hpp"
#include "workloads.hpp"

namespace omfbench {

namespace {

using omf::Buffer;
using omf::pbio::FormatHandle;

/// Scratch memory for one decoded record of any corpus format.
std::vector<std::uint64_t> record_memory(
    const std::vector<FormatHandle>& formats) {
  std::size_t most = 0;
  for (const auto& f : formats) most = std::max(most, f->struct_size());
  return std::vector<std::uint64_t>(most / 8 + 1);
}

class RpcSmall {
public:
  RpcSmall(const RunConfig& cfg, Corpus corpus)
      : corpus_(std::move(corpus)), listener_(0) {
    if (cfg.corrupt) {
      // The first record sent; its expected checksum stays the original's.
      corpus_.records[corpus_.order[0]].set_string("tag", "corrupted");
    }
    client_formats_ =
        register_schemas(client_registry_, corpus_, omf::arch::native());
    server_formats_ =
        register_schemas(server_registry_, corpus_, omf::arch::native());
    reply_ = record_memory(client_formats_);
    for (const auto& f : client_formats_) {
      seq_offset_.push_back(f->field_named("seq")->offset);
    }
    server_ = std::thread([this] { serve(); });
    client_.emplace(omf::transport::tcp_connect(listener_.port()),
                    client_registry_);
    client_->set_timeouts({std::chrono::milliseconds(5000),
                           std::chrono::milliseconds(5000),
                           std::chrono::milliseconds(5000)});
    // A multiple of the library's 64-message counter batching, so the
    // registry is exact at the edges of the measured window.
    double bytes = 0;
    for (next_op_ = 0; next_op_ < kWarmup; ++next_op_) {
      if (!round_trip(next_op_, nullptr, bytes) && !cfg.corrupt) {
        throw std::runtime_error("rpc-small: warm-up round trip failed");
      }
    }
  }

  ~RpcSmall() { stop(); }
  RpcSmall(const RpcSmall&) = delete;
  RpcSmall& operator=(const RpcSmall&) = delete;

  Window measure(const RunConfig& cfg) {
    Window w;
    const std::uint64_t t0 = now_ns();
    const auto deadline = t0 + static_cast<std::uint64_t>(cfg.seconds * 1e9);
    const TraceSchedule schedule(cfg.trace, t0);
    if (cfg.trace) traced_from_.store(t0);
    w.intervals = IntervalLog(t0, cfg.seconds);
    w.reg_before = registry_values();
    w.usage_before = ProcUsage::now();

    std::thread client([&] {
      for (std::uint64_t op = next_op_; now_ns() < deadline; ++op) {
        std::uint64_t start = now_ns();
        bool traced = schedule.traced_at(start);
        SpanLog* log = traced ? &client_log_ : nullptr;
        bool ok = false;
        bool broken = false;
        double bytes = 0;
        try {
          ok = round_trip(op, log, bytes);
        } catch (const std::exception&) {
          broken = true;  // the connection's state is unknown: stop here
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
        if (broken) break;
      }
    });
    w.cpu_s = sample_cpu(t0, w.intervals.intervals().size());
    client.join();
    const std::uint64_t t1 = now_ns();
    stop();  // server thread exits, flushing its batched counters
    if (server_failed_.load()) ++w.failed;
    w.wall_s = static_cast<double>(t1 - t0) / 1e9;
    w.usage_after = ProcUsage::now();
    w.reg_after = registry_values();
    split_traced_time(schedule, t0, t1, w);
    w.logs = {&client_log_, &server_log_};
    return w;
  }

private:
  static constexpr std::uint64_t kWarmup = 256;

  /// One request/reply exchange; false when the reply fails its check.
  bool round_trip(std::uint64_t op, SpanLog* log, double& payload_bytes) {
    const std::uint32_t idx = corpus_.order[op % corpus_.order.size()];
    const Message& msg = corpus_.messages[idx];
    const omf::pbio::Format& format =
        *client_formats_[corpus_.types[msg.type].schema];
    auto* record = static_cast<std::uint8_t*>(corpus_.records[idx].data());
    std::memcpy(record + seq_offset_[corpus_.types[msg.type].schema], &op,
                sizeof op);

    request_.clear();
    {
      Span s(log, Layer::kEncode, op);
      omf::pbio::encode(format, record, request_);
    }
    {
      Span s(log, Layer::kSend, op);
      client_->send(format, request_);
    }
    std::optional<Buffer> reply;
    {
      Span s(log, Layer::kReceive, op);
      reply = client_->receive();
    }
    if (!reply) throw std::runtime_error("rpc-small: server closed");
    arena_.reset();
    {
      Span s(log, Layer::kDecode, op);
      decoder_.decode(reply->span(), format, reply_.data(), arena_);
    }
    Span s(log, Layer::kCheck, op);
    payload_bytes += static_cast<double>(msg.payload_bytes);
    return record_seq(format, reply_.data()) == op &&
           record_checksum(format, reply_.data()) == msg.checksum;
  }

  void serve() {
    try {
      auto tcp = listener_.accept();
      if (!tcp.valid()) return;
      omf::transport::NdrConnection conn(std::move(tcp), server_registry_);
      omf::pbio::Decoder decoder(server_registry_);
      omf::pbio::DecodeArena arena;
      std::vector<std::uint64_t> mem = record_memory(server_formats_);
      Buffer reply;
      for (;;) {
        std::uint64_t from = traced_from_.load(std::memory_order_relaxed);
        SpanLog* log = TraceSchedule(from != 0, from).traced_now()
                           ? &server_log_
                           : nullptr;
        // The op id is inside the request: spans before the decode are
        // relabelled once it is known.
        const std::size_t mark = log != nullptr ? log->spans.size() : 0;
        std::optional<Buffer> request;
        {
          Span s(log, Layer::kReceive, 0);
          request = conn.receive();
        }
        if (!request) return;
        const omf::pbio::Format* format = nullptr;
        {
          Span s(log, Layer::kPeekFormatId, 0);
          auto id = omf::pbio::Decoder::peek_format_id(request->span());
          for (const auto& f : server_formats_) {
            if (f->id() == id) format = f.get();
          }
        }
        if (format == nullptr) throw std::runtime_error("unknown format id");
        arena.reset();
        {
          Span s(log, Layer::kDecode, 0);
          decoder.decode(request->span(), *format, mem.data(), arena);
        }
        const std::uint64_t op = record_seq(*format, mem.data());
        if (log != nullptr) {
          for (std::size_t i = mark; i < log->spans.size(); ++i) {
            log->spans[i].op = op;
          }
        }
        reply.clear();
        {
          Span s(log, Layer::kEncode, op);
          omf::pbio::encode(*format, mem.data(), reply);
        }
        Span s(log, Layer::kSend, op);
        conn.send(*format, reply);
      }
    } catch (const std::exception&) {
      server_failed_.store(true);
    }
  }

  void stop() {
    if (client_) client_->close();
    listener_.close();
    if (server_.joinable()) server_.join();
  }

  Corpus corpus_;
  omf::pbio::FormatRegistry client_registry_;
  omf::pbio::FormatRegistry server_registry_;
  std::vector<FormatHandle> client_formats_;
  std::vector<FormatHandle> server_formats_;
  std::vector<std::size_t> seq_offset_;  // per schema, native layout
  omf::transport::TcpListener listener_;
  std::optional<omf::transport::NdrConnection> client_;
  omf::pbio::Decoder decoder_{client_registry_};
  omf::pbio::DecodeArena arena_;
  Buffer request_;
  std::vector<std::uint64_t> reply_;
  std::uint64_t next_op_ = 0;
  std::atomic<std::uint64_t> traced_from_{0};
  std::atomic<bool> server_failed_{false};
  SpanLog client_log_;
  SpanLog server_log_;  // written only by the server thread
  std::thread server_;
};

}  // namespace

RunResult run_rpc_small(const RunConfig& cfg) {
  return run_fixture<RpcSmall>(cfg, rpc_small_corpus);
}

}  // namespace omfbench
