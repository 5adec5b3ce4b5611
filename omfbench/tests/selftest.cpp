// Self-tests of the benchmark itself:
//  * the generator is a pure function of the seed (same seed, byte-identical
//    inputs; different seed, different inputs);
//  * every workload's output check catches a deliberately corrupted
//    message, counting it failed instead of passing it silently;
//  * clean short runs, untraced and traced, pass with no failures.
// Exits non-zero on any failure.
#include <cstdio>
#include <exception>

#include "workloads.hpp"

using namespace omfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* workload, const char* what) {
  std::printf("%s %-14s %s\n", ok ? "PASS" : "FAIL", workload, what);
  if (!ok) ++failures;
}

RunResult run(const WorkloadInfo& w, bool corrupt, bool trace) {
  RunConfig cfg;
  cfg.seed = 7;
  cfg.seconds = 0.5;
  cfg.corrupt = corrupt;
  cfg.trace = trace;
  return w.run(cfg);
}

}  // namespace

int main() {
  for (const WorkloadInfo& w : workloads()) {
    try {
      const auto a = w.corpus(11).digest();
      expect(a == w.corpus(11).digest(), w.name,
             "same seed gives byte-identical inputs");
      expect(a != w.corpus(12).digest(), w.name,
             "different seed gives different inputs");

      RunResult bad = run(w, /*corrupt=*/true, /*trace=*/false);
      expect(bad.failed >= 1 && !bad.correct, w.name,
             "corrupted message counted as failed");

      RunResult clean = run(w, false, false);
      expect(clean.correct && clean.failed == 0 && clean.attempted > 0,
             w.name, "clean untraced run passes");

      RunResult traced = run(w, false, true);
      expect(traced.correct && !traced.per_layer.empty(), w.name,
             "clean traced run passes");
    } catch (const std::exception& e) {
      std::printf("FAIL %-14s threw: %s\n", w.name, e.what());
      ++failures;
    }
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
