// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <ingest|serve_forward|serve_hybrid> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints a progress log on stderr and, as the last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// measured from spans the benchmark records around its calls into each
// module (a layer a workload leaves idle reports 0).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kPerLayer[] = {
    {"rdf.parse_s", "s"},
    {"rdf.dict_image_load_s", "s"},
    {"reason.add_s", "s"},
    {"reason.useful_derivation_ratio", "ratio"},
    {"reason.timeout_flushes", "count"},
    {"reason.insert_ms_p50", "ms"},
    {"reason.delete_ms_p50", "ms"},
    {"reason.derivations_per_update", "count"},
    {"store.snapshot_load_s", "s"},
    {"store.read_back_ratio", "ratio"},
    {"store.tail_records", "count"},
    {"store.log_bytes_per_update", "B/update"},
    {"query.select_ms_p50", "ms"},
    {"query.plan_hit_ratio", "ratio"},
    {"query.rows_per_select", "rows"},
    {"hybrid.backward_share", "ratio"},
    {"hybrid.backward_ms_per_row", "ms"},
    {"tabling.hit_ratio", "ratio"},
    {"tabling.invalidated_per_update", "count"},
    {"tabling.oversize_skips", "count"},
    {"net.ttfb_p50_ms", "ms"},
    {"net.self_ms_per_select", "ms"},
    {"net.update_wait_ms_p50", "ms"},
    {"coalescer.ops_per_batch", "ops/batch"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ingest|serve_forward|"
               "serve_hybrid> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  if (args.workdir.empty() || args.seconds < 1) return Usage();
  std::filesystem::create_directories(args.workdir);
  perfbench::trace::Enable(args.trace);

  perfbench::Outcome outcome;
  if (args.workload == "ingest") {
    outcome = perfbench::RunIngest(args);
  } else if (args.workload == "serve_forward") {
    outcome = perfbench::RunServe(args, /*hybrid=*/false);
  } else if (args.workload == "serve_hybrid") {
    outcome = perfbench::RunServe(args, /*hybrid=*/true);
  } else {
    return Usage();
  }
  if (args.trace) {
    for (const MetricName& m : kPerLayer) {
      if (!outcome.report.Has(m.name)) outcome.report.Set(m.name, 0.0, m.unit);
    }
  }
  outcome.report.Log(args.trace ? "per-layer metrics:" : "end-to-end metrics:");
  std::fprintf(stderr, "correct=%d attempted=%llu failed=%llu\n",
               outcome.correct ? 1 : 0,
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed));
  outcome.report.Print(outcome.correct, outcome.attempted, outcome.failed);
  return 0;
}
