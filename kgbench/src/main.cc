// kgbench: the kgov benchmark binary.
//
//   kgbench --workload <qa_cold|qa_hot|learn_batch|stream_mixed>
//           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Runs one workload in this process, checks its outputs, and prints the
// result as one JSON object on the last line of stdout. With --trace 0 the
// metrics are the workload's end-to-end metrics; with --trace 1 they are
// its per-layer metrics, taken from spans and the program's telemetry.
// Exit codes: 0 ok, 1 correctness mismatch (result printed, "correct":
// false), 2 usage error, 3 aborted self-check (no result printed).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "report.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "kgbench: %s\nusage: kgbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  kgbench::RunOptions run;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      run.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      run.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (run.work_dir.empty()) Usage("--work-dir is required");
  if (!(run.seconds > 0.0)) Usage("--seconds must be positive");

  kgov::SetLogLevel(kgov::LogLevel::kWarning);
  kgbench::Report report;
  if (run.workload == "qa_cold") {
    kgbench::RunQaCold(run, &report);
  } else if (run.workload == "qa_hot") {
    kgbench::RunQaHot(run, &report);
  } else if (run.workload == "learn_batch") {
    kgbench::RunLearnBatch(run, &report);
  } else if (run.workload == "stream_mixed") {
    kgbench::RunStreamMixed(run, &report);
  } else {
    Usage(("unknown workload " + run.workload).c_str());
  }
  if (report.attempted() == 0) kgbench::Abort("no operation was attempted");
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
