#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace e2e {

using lapse::net::MsgType;
using lapse::obs::OpKind;
using lapse::obs::Phase;

double SecondsSinceStart() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

lapse::obs::ObsConfig TracedObs() {
  lapse::obs::ObsConfig obs;
  obs.enabled = true;
  obs.sample_every = 64;
  return obs;
}

HostSample SampleHost() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostSample s;
  s.wall_s = SecondsSinceStart();
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    long long t[8] = {};
    if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &t[0],
                    &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) == 8) {
      for (const long long v : t) s.machine_ticks += v;
      s.steal_ticks = t[7];
    }
    std::fclose(f);
  }
  return s;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Counters ReadCounters(lapse::ps::PsSystem& system) {
  Counters c;
  const int nodes = system.config().num_nodes;
  c.local_reads = system.TotalLocalReads();
  c.remote_reads = system.TotalRemoteReads();
  c.replica_reads = system.TotalReplicaReads();
  c.relocated_keys = system.TotalRelocatedKeys();
  for (lapse::NodeId n = 0; n < nodes; ++n) {
    const lapse::ps::ServerStats& s = system.node_stats(n);
    c.queued_local_ops += s.queued_local_ops.count();
    c.coalesce_batches += s.coalesce_batches.count();
    c.coalesced_sub_ops += s.coalesce_batches.sum();
    c.forced_drains += s.coalesce_forced_drains.count();
    c.localization_conflicts += system.NodeLocalizationConflicts(n);
    for (size_t t = 0; t < Counters::kTypes; ++t) {
      const auto type = static_cast<MsgType>(t);
      c.backlog_count[t] += system.NodeBacklogCount(n, type);
      c.backlog_sum_ns[t] += system.NodeBacklogSumNs(n, type);
    }
  }
  lapse::net::NetStats& net = system.net_stats();
  c.msgs = net.total_messages();
  c.bytes = net.total_bytes();
  for (size_t t = 0; t < Counters::kTypes; ++t) {
    c.msgs_of_type[t] = net.MessagesOfType(static_cast<MsgType>(t));
  }
  if (lapse::obs::Observability* obs = system.observability()) {
    obs->Flush();
    c.traced_ops = obs->finalized_ops();
    for (size_t p = 0; p < static_cast<size_t>(Phase::kNumPhases); ++p) {
      c.phase_sum_ns[p] = obs->PhaseDuration(static_cast<Phase>(p)).Sum();
    }
  }
  return c;
}

void ResetObsHistograms(lapse::ps::PsSystem& system) {
  lapse::obs::Observability* obs = system.observability();
  if (obs == nullptr) return;
  obs->Flush();
  for (size_t k = 0; k < static_cast<size_t>(OpKind::kNumKinds); ++k) {
    obs->OpLatency(static_cast<OpKind>(k)).Reset();
  }
  obs->ReplicaReadAge().Reset();
  obs->AdaptTick().Reset();
  obs->CoalesceBatchSize().Reset();
  obs->CoalesceWaitNs().Reset();
}

const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"setup.generate_s", "s"},
      {"setup.system_s", "s"},
      {"setup.init_s", "s"},
      {"setup.warmup_s", "s"},
      {"task.round_p50_s", "s"},
      {"host.cpu_us_per_item", "us"},
      {"host.busy_cores", "cores"},
      {"host.steal_frac", "fraction"},
      {"worker.local_read_frac", "fraction"},
      {"worker.replica_read_frac", "fraction"},
      {"worker.remote_reads_per_item", "keys/item"},
      {"worker.queued_local_ops_per_item", "ops/item"},
      {"worker.pull_issue_ns", "ns"},
      {"worker.push_issue_ns", "ns"},
      {"worker.wait_ns", "ns"},
      {"serve.op_p50_us", "us"},
      {"serve.op_p99_us", "us"},
      {"op.pull_p50_us", "us"},
      {"op.pull_p99_us", "us"},
      {"op.push_p50_us", "us"},
      {"op.localize_p50_us", "us"},
      {"op.localize_p99_us", "us"},
      {"phase.local_ns", "ns"},
      {"phase.queue_ns", "ns"},
      {"phase.net_ns", "ns"},
      {"phase.reloc_stall_ns", "ns"},
      {"phase.coalesce_wait_ns", "ns"},
      {"server.relocations_per_s", "1/s"},
      {"server.localization_conflicts", "count"},
      {"server.backlog_us.localize", "us"},
      {"server.backlog_us.batch_op", "us"},
      {"server.backlog_us.pull", "us"},
      {"net.msgs_per_item", "msgs/item"},
      {"net.bytes_per_item", "bytes/item"},
      {"net.reloc_msgs_per_item", "msgs/item"},
      {"net.batch_msgs_per_item", "msgs/item"},
      {"net.push_msgs_per_item", "msgs/item"},
      {"coalescer.batch_size_mean", "ops/batch"},
      {"coalescer.forced_drain_frac", "fraction"},
      {"replica.keys_pinned", "count"},
      {"replica.read_age_p50_us", "us"},
      {"adapt.localizes_issued", "count"},
      {"adapt.replicas_pinned", "count"},
      {"adapt.tick_p50_us", "us"},
      {"obs.traced_items_per_s", "items/s"},
      {"obs.orphaned_ops", "count"},
      {"obs.dropped_events", "count"},
  };
  return kNames;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

size_t T(MsgType t) { return static_cast<size_t>(t); }

}  // namespace

void AddLayerMetrics(lapse::ps::PsSystem& system, const Counters& b,
                     const Counters& a, const HostSample& hb,
                     const HostSample& ha, Outcome* out) {
  std::map<std::string, double>& m = out->layer;
  const double n = static_cast<double>(out->attempted);
  const double wall = ha.wall_s - hb.wall_s;
  const double cpu = ha.cpu_s - hb.cpu_s;
  m["host.cpu_us_per_item"] = Ratio(cpu * 1e6, n);
  m["host.busy_cores"] = Ratio(cpu, wall);
  m["host.steal_frac"] =
      Ratio(static_cast<double>(ha.steal_ticks - hb.steal_ticks),
            static_cast<double>(ha.machine_ticks - hb.machine_ticks));

  const double local = static_cast<double>(a.local_reads - b.local_reads);
  const double remote = static_cast<double>(a.remote_reads - b.remote_reads);
  const double replica =
      static_cast<double>(a.replica_reads - b.replica_reads);
  const double reads = local + remote + replica;
  m["worker.local_read_frac"] = Ratio(local, reads);
  m["worker.replica_read_frac"] = Ratio(replica, reads);
  m["worker.remote_reads_per_item"] = Ratio(remote, n);
  m["worker.queued_local_ops_per_item"] =
      Ratio(static_cast<double>(a.queued_local_ops - b.queued_local_ops), n);

  m["server.relocations_per_s"] =
      Ratio(static_cast<double>(a.relocated_keys - b.relocated_keys), wall);
  m["server.localization_conflicts"] =
      static_cast<double>(a.localization_conflicts - b.localization_conflicts);
  auto backlog_us = [&](MsgType t) {
    const size_t i = T(t);
    return Ratio(Us(a.backlog_sum_ns[i] - b.backlog_sum_ns[i]),
                 static_cast<double>(a.backlog_count[i] - b.backlog_count[i]));
  };
  m["server.backlog_us.localize"] = backlog_us(MsgType::kLocalize);
  m["server.backlog_us.batch_op"] = backlog_us(MsgType::kBatchOp);
  m["server.backlog_us.pull"] = backlog_us(MsgType::kPull);

  auto msgs = [&](MsgType t) {
    return static_cast<double>(a.msgs_of_type[T(t)] - b.msgs_of_type[T(t)]);
  };
  m["net.msgs_per_item"] = Ratio(static_cast<double>(a.msgs - b.msgs), n);
  m["net.bytes_per_item"] = Ratio(static_cast<double>(a.bytes - b.bytes), n);
  m["net.reloc_msgs_per_item"] =
      Ratio(msgs(MsgType::kLocalize) + msgs(MsgType::kRelocateInstruct) +
                msgs(MsgType::kRelocateTransfer) +
                msgs(MsgType::kLocalizeNoop),
            n);
  m["net.batch_msgs_per_item"] = Ratio(msgs(MsgType::kBatchOp), n);
  m["net.push_msgs_per_item"] = Ratio(msgs(MsgType::kPush), n);

  const double batches =
      static_cast<double>(a.coalesce_batches - b.coalesce_batches);
  m["coalescer.batch_size_mean"] = Ratio(
      static_cast<double>(a.coalesced_sub_ops - b.coalesced_sub_ops),
      batches);
  m["coalescer.forced_drain_frac"] =
      Ratio(static_cast<double>(a.forced_drains - b.forced_drains), batches);

  const int nodes = system.config().num_nodes;
  double pinned = 0;
  for (lapse::NodeId node = 0; node < nodes; ++node) {
    if (lapse::ps::ReplicaManager* rm = system.replica_manager(node)) {
      pinned += static_cast<double>(rm->stats().pinned);
    }
  }
  m["replica.keys_pinned"] = pinned;
  if (system.adaptive_enabled()) {
    double localizes = 0;
    double replicas = 0;
    for (lapse::NodeId node = 0; node < nodes; ++node) {
      const lapse::adapt::AdaptStats s =
          system.placement_manager(node).stats();
      localizes += static_cast<double>(s.localizes_issued);
      replicas += static_cast<double>(s.replicas_pinned);
    }
    m["adapt.localizes_issued"] = localizes;
    m["adapt.replicas_pinned"] = replicas;
  }

  lapse::obs::Observability* obs = system.observability();
  if (obs == nullptr) return;
  obs->Flush();
  auto op_us = [&](OpKind k, double q) {
    return Us(obs->OpLatency(k).ValueAtQuantile(q));
  };
  m["op.pull_p50_us"] = op_us(OpKind::kPull, 0.5);
  m["op.pull_p99_us"] = op_us(OpKind::kPull, 0.99);
  m["op.push_p50_us"] = op_us(OpKind::kPush, 0.5);
  m["op.localize_p50_us"] = op_us(OpKind::kLocalize, 0.5);
  m["op.localize_p99_us"] = op_us(OpKind::kLocalize, 0.99);
  const double traced = static_cast<double>(a.traced_ops - b.traced_ops);
  auto phase_ns = [&](Phase p) {
    const size_t i = static_cast<size_t>(p);
    return Ratio(static_cast<double>(a.phase_sum_ns[i] - b.phase_sum_ns[i]),
                 traced);
  };
  m["phase.local_ns"] = phase_ns(Phase::kLocal);
  m["phase.queue_ns"] = phase_ns(Phase::kQueue);
  m["phase.net_ns"] = phase_ns(Phase::kNet);
  m["phase.reloc_stall_ns"] = phase_ns(Phase::kRelocStall);
  m["phase.coalesce_wait_ns"] = phase_ns(Phase::kCoalesceWait);
  m["replica.read_age_p50_us"] = Us(obs->ReplicaReadAge().ValueAtQuantile(0.5));
  m["adapt.tick_p50_us"] = Us(obs->AdaptTick().ValueAtQuantile(0.5));
  m["obs.traced_items_per_s"] = out->items_per_s;
  m["obs.orphaned_ops"] = static_cast<double>(obs->orphaned_ops());
  m["obs.dropped_events"] = static_cast<double>(obs->dropped_events());
}

void FinishRounds(int64_t items_per_round, Outcome* out) {
  std::vector<double> rates;
  for (const double s : out->round_s) {
    rates.push_back(static_cast<double>(items_per_round) / s);
  }
  out->attempted = items_per_round * static_cast<int64_t>(rates.size());
  out->items_per_s = Median(rates);
  out->peak_rss_mb = PeakRssMb();
  out->layer["task.round_p50_s"] = Median(out->round_s);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

namespace {

void AppendMetric(std::string* s, bool* first, const std::string& name,
                  double value, const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *s += *first ? "" : ", ";
  *first = false;
  *s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
        "\"}";
}

}  // namespace

std::string ResultJson(const Outcome& out, bool trace) {
  std::string metrics;
  bool first = true;
  if (trace) {
    for (const auto& [name, unit] : PerLayerNames()) {
      const auto it = out.layer.find(name);
      AppendMetric(&metrics, &first, name,
                   it == out.layer.end() ? 0.0 : it->second, unit);
    }
  } else {
    AppendMetric(&metrics, &first, "items_per_s", out.items_per_s,
                 "items/s");
    AppendMetric(&metrics, &first, "setup_s", out.setup_s, "s");
    AppendMetric(&metrics, &first, "peak_rss_mb", out.peak_rss_mb, "MB");
  }
  const bool correct = out.problems.empty();
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
                correct ? "true" : "false",
                static_cast<long long>(out.attempted),
                static_cast<long long>(correct ? 0 : out.attempted));
  return std::string(head) + "\"metrics\": {" + metrics + "}}";
}

}  // namespace e2e
