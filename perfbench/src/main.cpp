// perfbench — one workload of the repository benchmark per process.
//
// run.py builds this binary and invokes it with the workload's parameters
// from perfbench/spec.json. Output: a host record line ("host {...}"),
// progress lines, and as the last line "result {...}" with the correctness
// verdict and the metrics of the requested mode.
//
// Exit codes: 0 ok, 1 correctness gate failed, 2 error, 3 run invalid (the
// load generator ran later than its bound, or the host stayed disturbed
// through every cycle the run could rerun).
#include <cstdio>
#include <exception>

#include "fixture.hpp"
#include "src/common/cli.hpp"
#include "src/common/parallel.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  mtsr::CliParser cli("perfbench", "One workload of the repository benchmark");
  cli.add_string("workload", "", "workload name (for the record)");
  cli.add_string("kind", "serve", "serve | train");
  cli.add_int("seed", 1, "input seed");
  cli.add_double("seconds", 10, "nominal measured duration");
  cli.add_int("trace", 0, "1: per-layer traced run, 0: end-to-end run");
  cli.add_string("model", "zipnet", "served model: zipnet | zipnet-int8");
  cli.add_int("sessions", 8, "wire sessions");
  cli.add_int("consumers", 1, "consumers per stream tag (1 = untagged)");
  cli.add_double("rate", 0, "serve: open-loop pushes/s (required)");
  cli.add_double("late-bound-ms", 0, "validity bound on generator lateness "
                                     "p99 (required)");
  cli.add_double("steal-bound", 0, "host steal share past which a measured "
                                   "cycle is rerun (required)");
  cli.add_int("setups", 3, "set-up repetitions");
  cli.add_string("work-dir", ".", "directory for checkpoints");
  cli.add_string("trace-out", "", "Chrome trace output path (traced runs)");
  cli.add_string("commit", "unknown", "source revision for the host record");

  perfbench::Options opt;
  std::string kind;
  try {
    if (!cli.parse(argc, argv)) return 0;
    opt.workload = cli.get_string("workload");
    kind = cli.get_string("kind");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.seconds = cli.get_double("seconds");
    opt.trace = cli.get_int("trace") != 0;
    opt.model = cli.get_string("model");
    opt.sessions = static_cast<int>(cli.get_int("sessions"));
    opt.consumers = static_cast<int>(cli.get_int("consumers"));
    opt.rate = cli.get_double("rate");
    opt.late_bound_ms = cli.get_double("late-bound-ms");
    opt.steal_bound = cli.get_double("steal-bound");
    opt.setups = static_cast<int>(cli.get_int("setups"));
    opt.work_dir = cli.get_string("work-dir");
    opt.commit = cli.get_string("commit");
    if (opt.setups < 1 || !(opt.seconds > 0) ||
        (kind != "serve" && kind != "train")) {
      throw std::invalid_argument("bad --setups, --seconds or --kind");
    }
    if (!(opt.late_bound_ms > 0) ||
        !(opt.steal_bound > 0 && opt.steal_bound < 1)) {
      throw std::invalid_argument(
          "--late-bound-ms > 0 and --steal-bound in (0, 1) are required");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n%s", e.what(), cli.usage().c_str());
    return 2;
  }

  perfbench::SpanLog log;
  perfbench::RunResult result;
  try {
    // Fixed pool geometry, set before any session opens.
    mtsr::set_num_threads(perfbench::kPoolWorkers);
    mtsr::set_num_shards(perfbench::kPoolShards);
    std::printf("host %s\n", perfbench::host_record(opt).c_str());
    std::fflush(stdout);
    result = kind == "train" ? perfbench::run_train(opt, log)
                             : perfbench::run_serve(opt, log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
  const std::string trace_out = cli.get_string("trace-out");
  if (opt.trace && !trace_out.empty() && !log.write_chrome_trace(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 2;
  }
  std::printf("result %s\n", result.to_json().c_str());
  std::fflush(stdout);
  if (!result.correct) return 1;
  return result.valid ? 0 : 3;
}
