// The four workloads and the scaffolding they share: repeated set-up for
// setup_s, the measured window, and the reduction of a window to the
// end-to-end and per-layer metrics every workload reports.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gen.hpp"
#include "ledger.hpp"

namespace omfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupts one generated message before the run (negative self-test):
  /// the run must count it as failed.
  bool corrupt = false;
};

/// What a measured window produced.
struct Window {
  double wall_s = 0;
  std::uint64_t ops = 0;     ///< completed ops, all threads
  std::uint64_t failed = 0;  ///< ops that threw, timed out or failed a check
  double payload_bytes = 0;  ///< application bytes of every decoded record
  /// Ops, bytes and latency samples per interval, and process CPU seconds
  /// at each interval boundary.
  IntervalLog intervals;
  std::vector<double> cpu_s;
  /// Open loops offer a fixed rate, so their throughput and CPU per op are
  /// taken over the whole window (an interval's CPU time is too few clock
  /// ticks to divide); closed loops report the median interval.
  bool open_loop = false;
  /// CPU an open-loop generator spent waiting for due times: the
  /// benchmark's, not the program's, so cpu_us_per_op leaves it out.
  double wait_cpu_s = 0;
  ProcUsage usage_before, usage_after;
  RegistryValues reg_before, reg_after;
  /// Traced runs: ops completed inside traced / untraced windows.
  std::uint64_t traced_ops = 0;
  std::uint64_t untraced_ops = 0;
  double traced_s = 0;
  double untraced_s = 0;
  std::vector<const SpanLog*> logs;
  /// Metrics only one workload can produce (added to per_layer).
  std::vector<Metric> extra_layers;
  bool valid = true;
  std::string invalid_reason;
};

/// Host fingerprint, measured once per process before any set-up.
struct HostInfo {
  unsigned nproc = 0;
  std::string simd_tier_name;
  std::string compiler;
  std::string build_type;
  /// Two threads' throughput on a trivially parallel loop over one
  /// thread's; near 1 means this run had no usable parallelism.
  double parallel_control_ratio = 0;
};
const HostInfo& host_info();

/// Reduces a window to the run's metrics.
RunResult finish(const RunConfig& cfg, double setup_s, Window& w);

/// Splits [t0, t1] into seconds inside traced and untraced windows.
void split_traced_time(const TraceSchedule& schedule, std::uint64_t t0,
                       std::uint64_t t1, Window& w);

/// Generates the run's inputs, sets up kSetups times from copies of them
/// (tearing each previous fixture down first), then measures the last
/// set-up. setup_s is the median set-up: starting servers, registering
/// formats and warming up, which is the program's work. Generating inputs
/// is the benchmark's own work and is not timed: it is most of
/// decode-hetero's set-up (the library's test-only synthesize_wire is
/// quadratic in array length), and its wall time follows the host's memory
/// contention. `Fixture(const RunConfig&, Corpus)` does the set-up;
/// `Window Fixture::measure(const RunConfig&)` the measured window.
template <class Fixture>
RunResult run_fixture(const RunConfig& cfg,
                      Corpus (*generate)(std::uint64_t seed)) {
  constexpr int kSetups = 9;
  const Corpus corpus = generate(cfg.seed);
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetups; ++i) {
    fixture.reset();
    // Copies share corpus.records (DynamicRecord is a handle); only one
    // fixture exists at a time.
    Corpus inputs = corpus;
    std::uint64_t t0 = now_ns();
    fixture = std::make_unique<Fixture>(cfg, std::move(inputs));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  Window w = fixture->measure(cfg);
  return finish(cfg, median(setup_s), w);
}

/// Flips a byte inside the last double of a Payload message.
void corrupt(Message& m);
/// Corrupts the first Payload message in `corpus.order` (an order of
/// message indices).
void corrupt_one_payload(Corpus& corpus);

RunResult run_rpc_small(const RunConfig& cfg);
RunResult run_decode_hetero(const RunConfig& cfg);
RunResult run_join_churn(const RunConfig& cfg);
RunResult run_pubsub_open(const RunConfig& cfg);

struct WorkloadInfo {
  const char* name;
  RunResult (*run)(const RunConfig&);
  Corpus (*corpus)(std::uint64_t seed);
  /// Run every thread on one CPU. Workloads whose threads hand each message
  /// to one another do: on a virtual machine an idle vCPU taking a wakeup
  /// must first be rescheduled by the hypervisor, which under host
  /// contention turns each cross-CPU hand-off into a stall of up to
  /// milliseconds. Strictly alternating ping-pong loses no parallelism;
  /// pubsub-open at its rate keeps a fraction of one CPU busy, and with its
  /// publisher on a CPU of its own its p99 read 5.6-12.9 ms across ten
  /// runs, against 5.4-5.5 ms on one CPU (README).
  bool one_cpu;
};
const std::vector<WorkloadInfo>& workloads();

}  // namespace omfbench
