// perfbench — the repository benchmark's load generator. Usually started
// by run.py, which builds it first:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--spans FILE]
//
// Prints notes, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics. Exits 1 when an answer check or
// a recall floor failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Report;

void PrintResult(const Report& r) {
  for (const auto& note : r.notes) std::printf("%s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-filtered|disk-ann "
               "--seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (!std::strcmp(flag, "--workload")) args.workload = value;
    else if (!std::strcmp(flag, "--seed")) args.seed = std::strtoull(value, nullptr, 10);
    else if (!std::strcmp(flag, "--seconds")) args.seconds = std::atof(value);
    else if (!std::strcmp(flag, "--trace")) args.trace = std::atoi(value) != 0;
    else if (!std::strcmp(flag, "--work-dir")) args.work_dir = value;
    else if (!std::strcmp(flag, "--spans")) args.spans_path = value;
    else return Usage();
  }
  if (argc % 2 == 0 || args.work_dir.empty() || args.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }

  Report report;
  if (args.workload == "serve-filtered") report = perfbench::RunServeFiltered(args);
  else if (args.workload == "disk-ann") report = perfbench::RunDiskAnn(args);
  else return Usage();
  std::filesystem::remove_all(args.work_dir, ec);
  PrintResult(report);
  return report.correct ? 0 : 1;
}
