// End-to-end benchmark driver:
//
//   e2ebench --workload <mf_dsgd|kge_complex|zipf_serving> --seed <n>
//            --seconds <s> --trace <0|1>
//            [--nodes <n>] [--workers <w>] [--coalescing <0|1>]
//
// Prints problems and a short summary on stderr, and as the last line of
// stdout one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when a correctness check failed. The optional shape
// and coalescing overrides give the README's reference figures; the
// benchmark itself never passes them.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

bool ParseInt(const char* s, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<mf_dsgd|kge_complex|zipf_serving> --seed <n> --seconds <s> "
               "--trace <0|1> [--nodes <n>] [--workers <w>] "
               "[--coalescing <0|1>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::SecondsSinceStart();  // pins the clock origin at process start
  e2e::Options opt;
  bool have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[i + 1];
    long long n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      continue;
    }
    if (!ParseInt(value, &n) || n < 0) {
      return Usage(("bad value for " + flag).c_str());
    }
    if (flag == "--seed") {
      opt.seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds" && n >= 1 && n <= 3600) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && n <= 1) {
      opt.trace = n == 1;
    } else if (flag == "--nodes" && n >= 1 && n <= 8) {
      opt.nodes = static_cast<int>(n);
    } else if (flag == "--workers" && n >= 1 && n <= 8) {
      opt.workers = static_cast<int>(n);
    } else if (flag == "--coalescing" && n <= 1) {
      opt.coalescing = static_cast<int>(n);
    } else {
      return Usage(("unknown flag or value out of range: " + flag).c_str());
    }
  }
  if (!have_seconds) return Usage("--seconds is required");

  e2e::Outcome out;
  if (opt.workload == "mf_dsgd") {
    out = e2e::RunMfDsgd(opt);
  } else if (opt.workload == "kge_complex") {
    out = e2e::RunKgeComplex(opt);
  } else if (opt.workload == "zipf_serving") {
    out = e2e::RunZipfServing(opt);
  } else {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  const auto [fastest, slowest] =
      std::minmax_element(out.round_s.begin(), out.round_s.end());
  std::fprintf(stderr,
               "%s: %lld items in %zu rounds (%.3f-%.3f s each), %.0f items/s "
               "(median round), setup %.3f s, machine steal %.1f%%\n",
               opt.workload.c_str(), static_cast<long long>(out.attempted),
               out.round_s.size(), *fastest, *slowest, out.items_per_s,
               out.setup_s, 100.0 * out.layer["host.steal_frac"]);
  std::printf("%s\n", e2e::ResultJson(out, opt.trace).c_str());
  return out.problems.empty() ? 0 : 1;
}
