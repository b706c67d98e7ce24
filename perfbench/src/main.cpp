/// perfbench — time to a signed-off mask on three opckit workloads.
///
///   perfbench --workload flat_dense|cell_escalate|daemon_reuse
///             --seed N --seconds S --trace 0|1 --work-dir DIR
///             [--source-id HASH]
///
/// Generates the workload's inputs from the seed as GDSII under DIR,
/// runs it, checks the outputs, and prints to stdout one JSON line with
/// the full record (machine context, every metric with its median,
/// spread and sample count, shares and check results), then the result
/// line {"correct","attempted","failed","metrics"}. perfbench/run.py
/// builds this binary, calls it and prints the record as a table.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "benches.h"
#include "common.h"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload flat_dense|cell_escalate|"
               "daemon_reuse --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--source-id HASH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else if (key == "--source-id") {
      args.source_id = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (args.work_dir.empty()) return usage("--work-dir is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  const bool flow =
      args.workload == "flat_dense" || args.workload == "cell_escalate";
  if (!flow && args.workload != "daemon_reuse") {
    return usage("unknown workload");
  }

  std::filesystem::create_directories(args.work_dir);
  perfbench::Record rec;
  try {
    rec = flow ? perfbench::run_flow_workload(args)
               : perfbench::run_daemon_workload(args);
  } catch (const std::exception& e) {
    // A run that cannot finish has no result to report.
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
  std::cout << perfbench::render_record_json(rec, args) << '\n'
            << perfbench::render_result_line(rec) << std::endl;
  return 0;
}
