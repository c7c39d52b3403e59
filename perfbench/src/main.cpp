// eotora_perfbench — the end-to-end benchmark.
//
//   eotora_perfbench --workload=<paper-week|metro-10k|serve-churn>
//                    --seed=N --seconds=S --trace=<0|1> [--out-dir=DIR]
//
// --trace=0 measures the end-to-end metrics with no tracing; --trace=1
// interleaves untraced and traced repetitions and reports the per-layer
// metrics (and writes the spans to DIR). Either way every decision is
// checked. Human-readable lines come first; the last line of stdout is one
// JSON object {correct, attempted, failed, metrics}. Exit status: 0 when
// every check passed, 1 when a correctness check failed, 2 on bad usage.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "core/kernels/kernels.h"
#include "stats.h"
#include "util/args.h"
#include "util/build_info.h"

namespace {

using eotora::util::Json;
using perfbench::RunOptions;

Json provenance(const RunOptions& options) {
  Json doc = Json::object();
  doc["workload"] = options.workload;
  doc["seed"] = options.seed;
  doc["seconds"] = options.seconds;
  doc["trace"] = options.trace;
  doc["commit"] = eotora::util::build_info().commit;
  doc["build_type"] = eotora::util::build_info().build_type;
  doc["kernel_backend"] = eotora::core::kernels::backend_name();
  doc["nproc"] =
      static_cast<unsigned long>(std::thread::hardware_concurrency());
  Json threads = Json::object();
  threads["decide"] = 1;
  if (options.workload == "metro-10k") {
    threads["shard_workers"] = perfbench::metro_10k(0).params.shard_workers;
  }
  if (options.workload == "serve-churn") threads["producer"] = 1;
  doc["threads"] = std::move(threads);
  doc["policy"] = perfbench::kPolicyName;
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string out_dir;
  try {
    const eotora::util::Args args(
        argc, argv, {"workload", "seed", "seconds", "trace", "out-dir"});
    options.workload = args.get("workload", "");
    const long seed = args.get_int("seed", 1);
    options.seconds = args.get_double("seconds", 10.0);
    const long trace = args.get_int("trace", 0);
    out_dir = args.get("out-dir", "");
    if (options.workload != "paper-week" && options.workload != "metro-10k" &&
        options.workload != "serve-churn") {
      throw std::invalid_argument(
          "--workload must be paper-week, metro-10k or serve-churn");
    }
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    if (!(options.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be > 0");
    }
    if (trace != 0 && trace != 1) {
      throw std::invalid_argument("--trace must be 0 or 1");
    }
    options.seed = static_cast<std::uint64_t>(seed);
    options.trace = trace == 1;
  } catch (const std::exception& error) {
    std::cerr << "usage error: " << error.what() << "\n";
    return 2;
  }

  try {
    const Json origin = provenance(options);
    std::cout << "provenance " << origin.dump() << "\n";
    perfbench::RunOutput out =
        options.workload == "serve-churn"
            ? perfbench::run_serve_churn(perfbench::serve_churn(options.seed),
                                         options)
        : options.workload == "metro-10k"
            ? perfbench::run_batch(perfbench::metro_10k(options.seed), options)
            : perfbench::run_batch(perfbench::paper_week(options.seed),
                                   options);
    for (const perfbench::Metric& metric : out.metrics.items()) {
      std::cout << "metric " << metric.name << " = " << metric.value << " "
                << metric.unit;
      if (!metric.note.empty()) std::cout << "  (" << metric.note << ")";
      std::cout << "\n";
    }
    for (const std::string& error : out.errors) {
      std::cerr << "correctness: " << error << "\n";
    }
    if (options.trace && !out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      const std::string path = out_dir + "/spans-" + options.workload +
                               "-seed" + std::to_string(options.seed) +
                               ".json";
      Json doc = out.spans.to_json();
      doc["provenance"] = origin;
      std::ofstream file(path);
      file << doc.dump() << "\n";
      if (!file) throw std::runtime_error("cannot write " + path);
      std::cout << "spans written to " << path << "\n";
    }
    if (!out.host_scales.empty()) {
      const auto [low, high] = std::minmax_element(out.host_scales.begin(),
                                                   out.host_scales.end());
      std::cout << "host_scale = " << perfbench::median(out.host_scales)
                << " (median of " << out.host_scales.size()
                << " repetitions, range " << *low << " to " << *high
                << "; each repetition's timings were multiplied by its own)\n";
    }
    const bool correct = out.errors.empty();
    std::cout << "failed_slot_frac = "
              << static_cast<double>(out.failed) /
                     static_cast<double>(out.attempted)
              << " (" << out.failed << " of " << out.attempted << " slots)\n";
    std::cout << perfbench::result_json(correct, out.attempted, out.failed,
                                        out.metrics)
                     .dump()
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
