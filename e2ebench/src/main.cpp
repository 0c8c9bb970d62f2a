// End-to-end benchmark of the paper-shape mmHand system, raw IF frames
// to pose and mesh.
//
//   e2ebench --workload <live_one|live_fleet|offline_replay>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Prints provenance, the ledger rows and, as its last line, one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits non-zero
// when a correctness check fails or the arguments are malformed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "mmhand/common/parallel.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/trace.hpp"
#include "provenance.hpp"

namespace {

using e2ebench::Args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<live_one|live_fleet|offline_replay> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[i + 1];
    double number = 0.0;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      char* end = nullptr;
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-')
        usage("seed must be a non-negative integer");
      have_seed = true;
    } else if (key == "--seconds") {
      if (!parse_number(value, &number) || !(number > 0.0 && number <= 120.0))
        usage("seconds must be in (0, 120]");
      args.seconds = number;
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("all of --workload, --seed, --seconds and --trace are required");
  if (args.workload != "live_one" && args.workload != "live_fleet" &&
      args.workload != "offline_replay")
    usage(("unknown workload " + args.workload).c_str());
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Untraced runs measure with observability off whatever the
  // environment says; traced runs switch metrics on for their traced
  // phase only.
  mmhand::obs::set_metrics_enabled(false);
  mmhand::obs::set_tracing_enabled(false);
  const int threads = e2ebench::pool_threads();
  mmhand::set_num_threads(threads);

  const e2ebench::Calibration calib = e2ebench::calibrate(threads);
  std::printf("provenance %s\n",
              e2ebench::provenance_json(args, calib).c_str());

  e2ebench::Report report;
  long long attempted = 0;
  long long failed = 0;
  bool correct = false;
  try {
    if (args.workload == "offline_replay")
      correct = e2ebench::run_offline(args, report, &attempted, &failed);
    else
      correct = e2ebench::run_live(args, args.workload == "live_one" ? 1 : 4,
                                   report, &attempted, &failed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  report.layer("calib.parallelism", calib.parallelism, "x");
  report.layer("calib.core_ms", calib.core_ms, "ms");
  report.print_result(args.trace, correct, attempted, failed);
  return correct ? 0 : 1;
}
