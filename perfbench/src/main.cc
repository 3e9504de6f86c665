// texrheo_perfbench: the repository's benchmark harness.
//
//   texrheo_perfbench --workload train|serve-lone --seed N
//       --seconds S --trace 0|1 [--heldout-seed M] [--smoke 1]
//       [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run that
// prints the per-layer metrics, writes the benchmark's spans to
// DIR/trace-<workload>-<seed>.jsonl, and reports its own overhead. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before
// it (prefixed "# ") are the human report: build, inputs, every metric
// with its sample count, and the checks' notes. Exit code 0 means a result
// was printed; a failed correctness check prints "correct": false.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "texrheo_perfbench: %s\nusage: texrheo_perfbench --workload "
               "train|serve-lone --seed N --seconds S --trace 0|1 "
               "[--heldout-seed M] [--smoke 1] [--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, BenchOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--heldout-seed") {
      options->heldout_seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--smoke") {
      options->smoke = value == "1";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && options->heldout_seed != 0;
}

RunResult RunWorkload(Context& ctx, double seconds, SpanLog& spans) {
  if (ctx.options.workload == "train") return RunTrain(ctx, seconds, spans);
  return RunLone(ctx, seconds, spans);
}

void PrintMetrics(const char* kind, const MetricMap& map) {
  for (const auto& [name, m] : map) {
    std::printf("# %s %s = %.6g %s (n=%zu)\n", kind, name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

int Main(int argc, char** argv) {
  BenchOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad flags");
  if (options.workload != "train" && options.workload != "serve-lone") {
    return Usage("unknown --workload");
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  if (options.work_dir.empty()) options.work_dir = ".bench_build/perfbench/work";
  const std::string trace_out = options.work_dir + "/trace-" +
                                options.workload + "-" +
                                std::to_string(options.seed) + ".jsonl";
  // Packed models and WALs go to a directory of this process's own, which
  // is removed when the run ends.
  options.work_dir += "/run-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } remove_on_exit{options.work_dir};

  std::printf("# perfbench workload=%s seed=%llu heldout_seed=%llu "
              "seconds=%g trace=%d smoke=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.heldout_seed),
              options.seconds, options.trace ? 1 : 0, options.smoke ? 1 : 0);
  std::printf("# build compiler=\"%s\" type=%s flags=\"%s\" nproc=%u\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS,
              std::thread::hardware_concurrency());
#ifndef NDEBUG
  std::fprintf(stderr, "texrheo_perfbench: built without NDEBUG\n");
  return 1;
#endif

  RunResult result;
  MetricMap metrics;
  if (!options.trace) {
    // Set-up is repeated and its median reported, so set-up work shows
    // even when it moves between stages.
    const int reps = options.smoke ? 1 : 3;
    std::vector<double> setup_s;
    std::unique_ptr<Context> ctx;
    for (int i = 0; i < reps; ++i) {
      ctx.reset();
      const Clock::time_point t0 = Clock::now();
      auto ctx_or = Setup(options, /*for_probe=*/false);
      if (!ctx_or.ok()) {
        std::fprintf(stderr, "setup: %s\n", ctx_or.status().ToString().c_str());
        return 1;
      }
      setup_s.push_back(SecondsSince(t0));
      ctx = std::move(*ctx_or);
      std::printf("# set-up took %.3f s (generate %.3f s, dataset %.3f s, "
                  "sgns %.3f s)\n",
                  setup_s.back(), ctx->times.generate_s,
                  ctx->times.dataset_s, ctx->times.sgns_s);
    }
    SpanLog off(false);
    result = RunWorkload(*ctx, options.seconds, off);
    metrics = result.metrics;
    metrics["setup_s"] = {Median(setup_s), "s", setup_s.size()};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    PrintMetrics("named", result.named);
  } else {
    auto ctx_or = Setup(options, /*for_probe=*/true);
    if (!ctx_or.ok()) {
      std::fprintf(stderr, "setup: %s\n", ctx_or.status().ToString().c_str());
      return 1;
    }
    Context& ctx = **ctx_or;
    // Overhead: the same workload untraced, then traced, on fresh fleets.
    SpanLog off(false);
    const RunResult plain = RunWorkload(ctx, options.seconds / 2, off);
    SpanLog spans(true);
    texrheo::Status restarted = RestartFleet(ctx);
    if (!restarted.ok() || !plain.error.empty()) {
      std::fprintf(stderr, "traced run: %s %s\n", plain.error.c_str(),
                   restarted.ToString().c_str());
      return 1;
    }
    result = RunWorkload(ctx, options.seconds / 2, spans);
    if (result.error.empty()) {
      const double base = plain.metrics.at("p50_us").value;
      const double traced = result.metrics.at("p50_us").value;
      RunResult probe = RunLayerProbe(ctx, spans);
      result.correct = result.correct && plain.correct && probe.correct;
      result.attempted += plain.attempted + probe.attempted;
      result.failed += plain.failed + probe.failed;
      result.notes.insert(result.notes.end(), probe.notes.begin(),
                          probe.notes.end());
      if (!probe.error.empty()) {
        result.error = "probe: " + probe.error;
      } else {
        metrics = std::move(probe.metrics);
        metrics["trace.overhead_pct"] = {100.0 * (traced - base) / base, "%"};
      }
    }
    if (!spans.WriteJsonl(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("# spans written to %s\n", trace_out.c_str());
    for (const char* name :
         {"train.chain", "lone.request", "mix.read", "probe.request"}) {
      const std::vector<double> self = spans.SelfTimesNs(name);
      if (!self.empty()) {
        std::printf("# self-time %s median=%.0f ns (n=%zu)\n", name,
                    Median(self), self.size());
      }
    }
  }
  if (!result.error.empty()) {
    std::fprintf(stderr, "run: %s\n", result.error.c_str());
    for (const std::string& note : result.notes) {
      std::fprintf(stderr, "note: %s\n", note.c_str());
    }
    return 1;
  }
  for (const std::string& note : result.notes) {
    std::printf("# note %s\n", note.c_str());
  }
  PrintMetrics("metric", metrics);

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
