// pubsub-open: open loop through the networked backbone. One publisher
// thread sends on a fixed schedule (kRate messages per second, well below
// saturation) into a RemoteBackboneServer through RemotePublisher; two
// RemoteSubscription threads decode and check every message. Latency runs
// from each message's due time to its decode at the subscriber, so a stall
// anywhere shows as latency rather than as lower offered load. This is the
// only workload through the backbone's bounded per-subscriber queues and
// fan-out.
#include <atomic>
#include <memory>
#include <thread>

#include "checksum.hpp"
#include "obs/metrics.hpp"
#include "pbio/decode.hpp"
#include "transport/remote_backbone.hpp"
#include "workloads.hpp"

namespace omfbench {

namespace {

using omf::pbio::FormatHandle;

constexpr double kRate = 2000;  // messages per second
constexpr unsigned kSubscribers = 2;
constexpr const char* kChannel = "ois.feed";
/// A run whose publisher ran this late at its 99th percentile did not
/// offer the scheduled load and is reported invalid.
constexpr double kMaxGenLagP99Us = 10000;

struct Subscriber {
  std::thread thread;
  std::atomic<std::uint64_t> received{0};
  std::uint64_t last_decoded_ns = 0;  // written by the thread, read after join
  std::uint64_t failed = 0;  // written by the thread, read after join
  double payload_bytes = 0;
  std::uint64_t traced_ops = 0;
  std::uint64_t untraced_ops = 0;
  IntervalLog intervals;  // set before first_seq_ is published
  SpanLog log;
};

/// Spins until `done()` or the time limit; false on timeout. Spinning, not
/// sleeping: an idle vCPU is woken late by its hypervisor, and yielding
/// hands the CPU to any runnable thread of the workload.
template <class Done>
bool spin_until(Done done, std::chrono::milliseconds limit) {
  const std::uint64_t give_up =
      now_ns() + static_cast<std::uint64_t>(limit.count()) * 1'000'000;
  while (!done()) {
    if (now_ns() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

class PubsubOpen {
public:
  PubsubOpen(const RunConfig& cfg, Corpus corpus)
      : corpus_(std::move(corpus)) {
    if (cfg.corrupt) corrupt_one_payload(corpus_);
    native_ = register_schemas(registry_, corpus_, omf::arch::native())[0];
    for (const MessageType& t : corpus_.types) {
      sender_formats_.push_back(
          register_schemas(registry_, corpus_, *t.sender)[0]);
    }
    omf::transport::RemoteBackboneServer::Options options;
    options.queue.max_messages = 4096;
    server_ = std::make_unique<omf::transport::RemoteBackboneServer>(
        backbone_, options);
    for (auto& sub : subscribers_) {
      sub = std::make_unique<Subscriber>();
      Subscriber* s = sub.get();
      s->thread = std::thread([this, s] { subscribe(*s); });
    }
    publisher_ = std::make_unique<omf::transport::RemotePublisher>(
        server_->port());
    if (!spin_until(
            [&] { return backbone_.subscriber_count(kChannel) >= kSubscribers; },
            std::chrono::seconds(5))) {
      throw std::runtime_error("pubsub-open: subscribers did not attach");
    }
    // 64 unscheduled messages (the library batches decode counters by 64)
    // compile both plans and prove the path before the window.
    for (; next_seq_ < kWarmup; ++next_seq_) publish(next_seq_, nullptr);
    if (!await_delivery(next_seq_, std::chrono::seconds(5)) && !cfg.corrupt) {
      throw std::runtime_error("pubsub-open: warm-up messages not delivered");
    }
  }

  ~PubsubOpen() { stop(); }
  PubsubOpen(const PubsubOpen&) = delete;
  PubsubOpen& operator=(const PubsubOpen&) = delete;

  Window measure(const RunConfig& cfg) {
    Window w;
    const auto period = static_cast<std::uint64_t>(1e9 / kRate);
    const std::uint64_t t0 = now_ns() + 1'000'000;
    const std::uint64_t t_end =
        t0 + static_cast<std::uint64_t>(cfg.seconds * 1e9);
    const TraceSchedule schedule(cfg.trace, t0);
    w.open_loop = true;
    for (auto& s : subscribers_) s->intervals = IntervalLog(t0, cfg.seconds);
    schedule_t0_.store(t0);
    trace_.store(cfg.trace);
    // Publishes the intervals and schedule above to the subscriber threads.
    first_seq_.store(next_seq_, std::memory_order_release);
    w.reg_before = registry_values();
    w.usage_before = ProcUsage::now();

    SpanLog pub_log;
    LatencyHistogram lag;
    double depth_max = 0;
    std::thread publisher([&] {
      auto& depth = omf::obs::MetricsRegistry::instance().gauge(
          "transport.backbone.queue_depth");
      for (std::uint64_t seq = next_seq_;; ++seq) {
        const std::uint64_t due = t0 + (seq - next_seq_) * period;
        if (due >= t_end) break;
        // Wait without letting the CPU go idle: an idle vCPU is woken late
        // by its hypervisor, and the backbone's 5 ms poll sleeps would
        // overshoot with it. Yielding hands the CPU to any runnable thread.
        const std::uint64_t cpu0 = thread_cpu_ns();
        while (now_ns() < due) std::this_thread::yield();
        w.wait_cpu_s += static_cast<double>(thread_cpu_ns() - cpu0) / 1e9;
        lag.add(now_ns() - due);
        publish(seq, schedule.traced_at(due) ? &pub_log : nullptr);
        depth_max = std::max(depth_max, static_cast<double>(depth.value()));
        published_ = seq + 1;
      }
    });
    w.cpu_s = sample_cpu(t0, subscribers_[0]->intervals.intervals().size());
    publisher.join();
    // Whatever has not arrived by then is counted as not delivered.
    await_delivery(published_, std::chrono::seconds(5));
    stop();  // subscriber threads exit, flushing their batched counters
    std::uint64_t last = t_end;
    for (auto& s : subscribers_) last = std::max(last, s->last_decoded_ns);
    w.wall_s = static_cast<double>(last - t0) / 1e9;
    w.usage_after = ProcUsage::now();
    w.reg_after = registry_values();

    const std::uint64_t sent = published_ - next_seq_;
    for (auto& s : subscribers_) {
      // Every measured message is owed to every subscriber.
      std::uint64_t got = s->received.load() - next_seq_;
      w.ops += sent;
      w.failed += s->failed + (sent > got ? sent - got : 0);
      w.payload_bytes += s->payload_bytes;
      w.traced_ops += s->traced_ops;
      w.untraced_ops += s->untraced_ops;
      w.intervals.merge(s->intervals);
      w.logs.push_back(&s->log);
    }
    pub_log_ = std::move(pub_log);
    w.logs.push_back(&pub_log_);
    split_traced_time(schedule, t0, t_end, w);

    const double lag_p99 = lag.quantile_us(0.99);
    w.extra_layers = {{"bench.gen_lag_p99_us", lag_p99, "us"},
                      {"transport.backbone.queue_depth_max", depth_max,
                       "count"}};
    if (lag_p99 > kMaxGenLagP99Us) {
      w.valid = false;
      w.invalid_reason = "publisher fell behind schedule (gen lag p99 " +
                         std::to_string(lag_p99) + " us)";
    }
    return w;
  }

private:
  static constexpr std::uint64_t kWarmup = 64;

  void publish(std::uint64_t seq, SpanLog* log) {
    const std::uint32_t idx = corpus_.order[seq % corpus_.order.size()];
    Message& m = corpus_.messages[idx];
    stamp_seq(m.wire, *sender_formats_[m.type], seq);
    Span s(log, Layer::kBackbonePublish, seq);
    publisher_->publish(kChannel, m.wire);
  }

  void subscribe(Subscriber& sub) {
    try {
      omf::transport::RemoteSubscription subscription(server_->port(),
                                                      kChannel);
      omf::pbio::Decoder decoder(registry_, cache_);
      omf::pbio::DecodeArena arena;
      std::vector<std::uint64_t> mem(native_->struct_size() / 8 + 1);
      for (;;) {
        const bool trace = trace_.load(std::memory_order_relaxed);
        // Whether this message is traced depends on its due time, known
        // only after decoding; spans are kept or dropped then.
        const std::size_t mark = sub.log.spans.size();
        SpanLog* log = trace ? &sub.log : nullptr;
        std::optional<omf::Buffer> msg;
        {
          Span s(log, Layer::kReceive, 0);
          msg = subscription.receive();
        }
        if (!msg) return;
        arena.reset();
        bool ok = true;
        {
          Span s(log, Layer::kDecode, 0);
          try {
            decoder.decode(msg->span(), *native_, mem.data(), arena);
          } catch (const std::exception&) {
            ok = false;
          }
        }
        const std::uint64_t decoded = now_ns();
        sub.last_decoded_ns = decoded;
        const std::uint64_t seq = ok ? record_seq(*native_, mem.data()) : 0;
        const std::uint64_t first = first_seq_.load(std::memory_order_acquire);
        const bool measured = ok && first != 0 && seq >= first;
        std::uint64_t due = 0;
        if (measured) {
          due = schedule_t0_.load(std::memory_order_relaxed) +
                (seq - first) * static_cast<std::uint64_t>(1e9 / kRate);
        }
        {
          Span s(log, Layer::kCheck, seq);
          const Message& m =
              corpus_.messages[corpus_.order[seq % corpus_.order.size()]];
          if (!ok || record_checksum(*native_, mem.data()) != m.checksum) {
            ++sub.failed;
          } else if (measured) {
            sub.payload_bytes += static_cast<double>(m.payload_bytes);
            sub.intervals.add(decoded, 1, static_cast<double>(m.payload_bytes),
                              decoded - std::min(decoded, due));
          }
        }
        const bool traced =
            measured && TraceSchedule(trace, schedule_t0_.load()).traced_at(due);
        if (traced) {
          for (std::size_t i = mark; i < sub.log.spans.size(); ++i) {
            sub.log.spans[i].op = seq;
          }
          sub.log.ops.push_back({seq, due, decoded});
          ++sub.traced_ops;
        } else {
          sub.log.spans.resize(mark);
          if (measured) ++sub.untraced_ops;
        }
        sub.received.fetch_add(1);
      }
    } catch (const std::exception&) {
      ++sub.failed;
    }
  }

  bool await_delivery(std::uint64_t count, std::chrono::milliseconds limit) {
    return spin_until(
        [&] {
          for (auto& s : subscribers_) {
            if (s->received.load() < count) return false;
          }
          return true;
        },
        limit);
  }

  void stop() {
    if (publisher_) publisher_->close();
    if (server_) server_->stop();
    for (auto& s : subscribers_) {
      if (s && s->thread.joinable()) s->thread.join();
    }
  }

  Corpus corpus_;
  omf::pbio::FormatRegistry registry_;
  std::shared_ptr<omf::pbio::PlanCache> cache_ =
      std::make_shared<omf::pbio::PlanCache>();
  FormatHandle native_;
  std::vector<FormatHandle> sender_formats_;  // per message type
  omf::transport::EventBackbone backbone_;
  std::unique_ptr<omf::transport::RemoteBackboneServer> server_;
  std::unique_ptr<omf::transport::RemotePublisher> publisher_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t published_ = 0;
  std::atomic<std::uint64_t> first_seq_{0};
  std::atomic<std::uint64_t> schedule_t0_{0};
  std::atomic<bool> trace_{false};
  SpanLog pub_log_;
  std::unique_ptr<Subscriber> subscribers_[kSubscribers];
};

}  // namespace

RunResult run_pubsub_open(const RunConfig& cfg) {
  return run_fixture<PubsubOpen>(cfg, pubsub_open_corpus);
}

}  // namespace omfbench
