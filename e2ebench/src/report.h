#ifndef LAPSE_E2EBENCH_REPORT_H_
#define LAPSE_E2EBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/message.h"
#include "obs/obs_config.h"
#include "ps/system.h"

namespace e2e {

// Seconds since main() started; the origin is pinned by the first call,
// which main() makes before anything else.
double SecondsSinceStart();

// Observability settings of the traced run (end-to-end runs keep it off).
lapse::obs::ObsConfig TracedObs();

// CPU time of the whole process (user + system), wall time, and the
// machine's CPU time and stolen time from /proc/stat, for the host.*
// metrics. A virtual machine whose host is oversubscribed loses "steal"
// time on every busy vCPU, which slows these spin-waiting workloads more
// than in proportion; host.steal_frac tells that apart from a regression.
struct HostSample {
  double wall_s = 0;
  double cpu_s = 0;
  int64_t machine_ticks = 0;
  int64_t steal_ticks = 0;
};
HostSample SampleHost();
double PeakRssMb();

// Public counters of a PsSystem at one instant. The per-layer metrics are
// differences of two snapshots taken around the timed phase.
struct Counters {
  static constexpr size_t kTypes =
      static_cast<size_t>(lapse::net::MsgType::kNumTypes);
  int64_t local_reads = 0;
  int64_t remote_reads = 0;
  int64_t replica_reads = 0;
  int64_t queued_local_ops = 0;
  int64_t relocated_keys = 0;
  int64_t localization_conflicts = 0;
  int64_t backlog_count[kTypes] = {};
  int64_t backlog_sum_ns[kTypes] = {};
  int64_t msgs = 0;
  int64_t bytes = 0;
  int64_t msgs_of_type[kTypes] = {};
  int64_t coalesce_batches = 0;
  int64_t coalesced_sub_ops = 0;
  int64_t forced_drains = 0;
  int64_t traced_ops = 0;
  int64_t phase_sum_ns[static_cast<size_t>(lapse::obs::Phase::kNumPhases)] =
      {};
};
Counters ReadCounters(lapse::ps::PsSystem& system);

// Drains the collector and clears its latency histograms, so percentiles
// read after the timed phase describe that phase only. No-op untraced.
void ResetObsHistograms(lapse::ps::PsSystem& system);

// The per-layer metric names and units, in output order. Every traced run
// prints all of them; those a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames();

// What one workload run produced.
struct Outcome {
  int64_t attempted = 0;
  std::vector<std::string> problems;  // failed correctness checks
  // End-to-end metrics (untraced runs).
  double items_per_s = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  // Wall time of each timed round, in order.
  std::vector<double> round_s;
  // Per-layer metric values by name (traced runs); missing names read 0.
  std::map<std::string, double> layer;
};

// Derives attempted, items_per_s (median over rounds of items_per_round /
// round time) and task.round_p50_s from out->round_s, and samples
// peak_rss_mb. Call right after the timed phase, before the correctness
// checks allocate their own copies of the data.
void FinishRounds(int64_t items_per_round, Outcome* out);

// Fills the per-layer metrics that every workload derives the same way
// from counters, collector state and host samples around its timed phase.
// Call after FinishRounds: items are out->attempted.
void AddLayerMetrics(lapse::ps::PsSystem& system, const Counters& before,
                     const Counters& after, const HostSample& host_before,
                     const HostSample& host_after, Outcome* out);

// Median of a non-empty sample (0 when empty).
double Median(std::vector<double> v);

// The result line: {"correct", "attempted", "failed", "metrics"}. A run
// whose checks found a problem counts every attempted item as failed. With
// `trace` the metrics are the per-layer set, otherwise the end-to-end set.
std::string ResultJson(const Outcome& out, bool trace);

}  // namespace e2e

#endif  // LAPSE_E2EBENCH_REPORT_H_
