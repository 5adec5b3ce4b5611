// omfbench: runs one workload and prints its metrics.
//
//   omfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer ledger. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit code is 0 only when every decoded record passed its check; a run
// whose open-loop schedule was not met prints no result and exits 3.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using namespace omfbench;

int usage() {
  std::fprintf(stderr,
               "usage: omfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Confines the calling thread, and so every thread it creates later, to
/// the highest-numbered CPU it may run on. Returns that CPU, or -1.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  RunConfig cfg;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        name = value;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (key == "--trace") {
        cfg.trace = value != "0";
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  const WorkloadInfo* workload = nullptr;
  for (const auto& w : workloads()) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr || !have_seed || !(cfg.seconds > 0)) return usage();

  const HostInfo& host = host_info();  // measured before any pinning
  const int cpu = workload->one_cpu ? pin_to_one_cpu() : -1;
  std::printf(
      "# host nproc=%u simd=%s compiler=\"%s\" build=%s "
      "parallel_control_ratio=%.2f%s cpus=%s\n",
      host.nproc, host.simd_tier_name.c_str(), host.compiler.c_str(),
      host.build_type.c_str(), host.parallel_control_ratio,
      host.parallel_control_ratio < 1.5 ? " FLAG:no-parallelism" : "",
      cpu >= 0 ? ("one(" + std::to_string(cpu) + ")").c_str() : "all");

  RunResult r;
  try {
    r = workload->run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omfbench: %s failed: %s\n", workload->name, e.what());
    return 1;
  }
  if (!r.valid) {
    std::fprintf(stderr, "omfbench: invalid run, no result: %s\n",
                 r.invalid_reason.c_str());
    return 3;
  }

  const auto& metrics = cfg.trace ? r.per_layer : r.end_to_end;
  std::printf(
      "# %s seed=%llu trace=%d attempted=%llu failed=%llu "
      "latency_samples=%llu\n",
      workload->name, static_cast<unsigned long long>(cfg.seed),
      cfg.trace ? 1 : 0, static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.latency_samples));
  for (const Metric& m : metrics) {
    std::printf("#   %-40s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " +
            quoted(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
