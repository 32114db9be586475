// zipf_serving: a closed loop of windowed async single-key pulls with one
// push per 16 ops. Both nodes draw from one shared Zipf hot set, and
// adaptive placement, replication with write aggregation and coalescing
// are all on: replicas serve the hot reads, the coalescer batches the
// remote rest, and pushes to pinned keys fold and flush beside them.

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "obs/histogram.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/zipf.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace lapse;

constexpr uint64_t kKeys = 1 << 15;
constexpr size_t kLen = 8;
constexpr double kZipfExponent = 1.2;
constexpr int kWindow = 64;             // outstanding ops per worker
constexpr uint64_t kPushEvery = 16;     // op i is a push iff i % 16 == 15
constexpr int64_t kRoundOps = 1 << 17;  // per worker
constexpr int kWarmupRounds = 3;
constexpr size_t kStreamOps = 1 << 20;  // per worker, replayed cyclically
constexpr float kDelta = 1.0f;

// A worker's inputs and everything it observed, kept across rounds.
struct Client {
  std::vector<uint32_t> stream;  // keys in request order
  uint64_t next_op = 0;          // global op index of this client
  std::vector<uint64_t> pushes;  // per key
  std::vector<float> lo;         // smallest pulled value per entry
  std::vector<float> hi;         // largest pulled value per entry
  // Traced runs only: benchmark-side spans around each call.
  int64_t pull_issue_ns = 0;
  int64_t pulls = 0;
  int64_t push_issue_ns = 0;
  int64_t push_calls = 0;
  int64_t wait_ns = 0;
  int64_t waits = 0;
  std::unique_ptr<obs::Histogram> op_latency_ns;
};

struct Slot {
  uint64_t op = ps::Worker::kImmediate;
  uint32_t key = 0;
  bool pull = false;
  bool busy = false;
  int64_t issue_ns = 0;
};

// Ends one window slot: waits for its op, then folds a pulled value into
// the client's per-entry range.
void Retire(ps::Worker& w, Client& c, Slot& s, const float* buf, bool trace) {
  if (!s.busy) return;
  if (trace) {
    const int64_t t0 = NowNanos();
    w.Wait(s.op);
    const int64_t t1 = NowNanos();
    c.wait_ns += t1 - t0;
    ++c.waits;
    c.op_latency_ns->Add(t1 - s.issue_ns);
  } else {
    w.Wait(s.op);
  }
  if (s.pull) {
    float* lo = c.lo.data() + static_cast<size_t>(s.key) * kLen;
    float* hi = c.hi.data() + static_cast<size_t>(s.key) * kLen;
    for (size_t e = 0; e < kLen; ++e) {
      lo[e] = std::min(lo[e], buf[e]);
      hi[e] = std::max(hi[e], buf[e]);
    }
  }
  s.busy = false;
}

// One round: every worker issues kRoundOps ops with kWindow outstanding,
// then retires its window.
void RunRound(ps::PsSystem& system, std::vector<Client>& clients,
              bool trace) {
  system.Run([&](ps::Worker& w) {
    Client& c = clients[w.worker_id()];
    std::vector<Slot> slots(kWindow);
    std::vector<float> bufs(kWindow * kLen);
    const std::vector<float> delta(kLen, kDelta);
    std::vector<Key> one(1);
    for (int64_t i = 0; i < kRoundOps; ++i) {
      const size_t si = static_cast<size_t>(i % kWindow);
      Slot& s = slots[si];
      float* buf = bufs.data() + si * kLen;
      Retire(w, c, s, buf, trace);
      const uint64_t op = c.next_op++;
      s.key = c.stream[op % c.stream.size()];
      s.pull = op % kPushEvery != kPushEvery - 1;
      s.busy = true;
      one[0] = s.key;
      const int64_t t0 = trace ? NowNanos() : 0;
      if (s.pull) {
        s.op = w.PullAsync(one, buf);
      } else {
        s.op = w.PushAsync(one, delta.data());
        ++c.pushes[s.key];
      }
      if (trace) {
        const int64_t t1 = NowNanos();
        (s.pull ? c.pull_issue_ns : c.push_issue_ns) += t1 - t0;
        ++(s.pull ? c.pulls : c.push_calls);
        s.issue_ns = t0;
      }
    }
    for (int i = 0; i < kWindow; ++i) {
      Retire(w, c, slots[i], bufs.data() + i * kLen, trace);
    }
  });
}

// Small integers, so every sum of unit deltas is exact in float.
float InitialValue(uint64_t key, size_t e) {
  return static_cast<float>((key * 7 + e) % 64);
}

}  // namespace

Outcome RunZipfServing(const Options& opt) {
  const int nodes = opt.nodes > 0 ? opt.nodes : 2;
  const int workers = opt.workers > 0 ? opt.workers : 1;
  Outcome out;

  // Inputs: a seeded rank -> key permutation (the hot set spreads over both
  // homes) and one Zipf request stream per worker.
  const double t_gen = SecondsSinceStart();
  Rng rng(Mix64(opt.seed ^ 0x5e21ULL));
  std::vector<uint32_t> key_of_rank(kKeys);
  for (uint64_t r = 0; r < kKeys; ++r) {
    key_of_rank[r] = static_cast<uint32_t>(r);
  }
  for (uint64_t r = kKeys - 1; r > 0; --r) {
    std::swap(key_of_rank[r], key_of_rank[rng.Uniform(r + 1)]);
  }
  const ZipfSampler zipf(kKeys, kZipfExponent);
  const int total_workers = nodes * workers;
  std::vector<Client> clients(total_workers);
  for (Client& c : clients) {
    c.stream.resize(kStreamOps);
    for (uint32_t& k : c.stream) k = key_of_rank[zipf.Sample(rng)];
    c.pushes.assign(kKeys, 0);
    c.lo.assign(kKeys * kLen, std::numeric_limits<float>::infinity());
    c.hi.assign(kKeys * kLen, -std::numeric_limits<float>::infinity());
    if (opt.trace) c.op_latency_ns = std::make_unique<obs::Histogram>();
  }

  const double t_sys = SecondsSinceStart();
  ps::Config cfg;
  cfg.num_nodes = nodes;
  cfg.workers_per_node = workers;
  cfg.num_keys = kKeys;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = bench::BenchLatency();
  cfg.seed = opt.seed;
  cfg.adaptive.enabled = true;
  // Both nodes read the same hot keys, so one warm steal marks a key
  // contended. With the default 1-in-8 sampling, 4 ms ticks make the top
  // hundred or so ranks hot, and those get pinned on both nodes; the
  // managers stay near a tenth of a core each.
  cfg.adaptive.tick_micros = 4'000;
  cfg.adaptive.decay = 0.8;
  cfg.adaptive.hot_threshold = 2.0;
  cfg.adaptive.cold_threshold = 0.2;
  cfg.adaptive.churn_limit = 1;
  // Replica refreshes cost one round trip per pinned key per bound; 100 ms
  // keeps them far below the reads they replace.
  cfg.replica_staleness_micros = 100'000;
  cfg.replication = true;
  cfg.replica_write_aggregation = true;
  cfg.coalescing = opt.coalescing != 0;
  if (opt.trace) cfg.obs = TracedObs();
  ps::PsSystem system(cfg);

  const double t_init = SecondsSinceStart();
  std::vector<float> initial(kKeys * kLen);
  for (uint64_t k = 0; k < kKeys; ++k) {
    for (size_t e = 0; e < kLen; ++e) {
      initial[k * kLen + e] = InitialValue(k, e);
    }
    system.SetValue(k, initial.data() + k * kLen);
  }

  // Fixed warm-up in which placement and replica pinning settle.
  const double t_warm = SecondsSinceStart();
  for (int r = 0; r < kWarmupRounds; ++r) RunRound(system, clients, opt.trace);
  out.setup_s = SecondsSinceStart();
  out.layer["setup.generate_s"] = t_sys - t_gen;
  out.layer["setup.system_s"] = t_init - t_sys;
  out.layer["setup.init_s"] = t_warm - t_init;
  out.layer["setup.warmup_s"] = out.setup_s - t_warm;

  for (Client& c : clients) {
    c.pull_issue_ns = c.pulls = c.push_issue_ns = c.push_calls = 0;
    c.wait_ns = c.waits = 0;
    if (c.op_latency_ns) c.op_latency_ns->Reset();
  }
  ResetObsHistograms(system);
  const Counters before = ReadCounters(system);
  const HostSample host_before = SampleHost();
  const double start = SecondsSinceStart();
  do {
    const double r0 = SecondsSinceStart();
    RunRound(system, clients, opt.trace);
    out.round_s.push_back(SecondsSinceStart() - r0);
  } while (SecondsSinceStart() - start < opt.seconds);
  const HostSample host_after = SampleHost();
  const Counters after = ReadCounters(system);

  FinishRounds(kRoundOps * total_workers, &out);
  AddLayerMetrics(system, before, after, host_before, host_after, &out);
  if (opt.trace) {
    obs::Histogram latency;
    int64_t pull_ns = 0, pulls = 0, push_ns = 0, push_calls = 0;
    int64_t wait_ns = 0, waits = 0;
    for (const Client& c : clients) {
      latency.MergeFrom(*c.op_latency_ns);
      pull_ns += c.pull_issue_ns;
      pulls += c.pulls;
      push_ns += c.push_issue_ns;
      push_calls += c.push_calls;
      wait_ns += c.wait_ns;
      waits += c.waits;
    }
    auto mean = [](int64_t sum, int64_t n) {
      return n > 0 ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
    };
    out.layer["worker.pull_issue_ns"] = mean(pull_ns, pulls);
    out.layer["worker.push_issue_ns"] = mean(push_ns, push_calls);
    out.layer["worker.wait_ns"] = mean(wait_ns, waits);
    out.layer["serve.op_p50_us"] = latency.ValueAtQuantile(0.5) * 1e-3;
    out.layer["serve.op_p99_us"] = latency.ValueAtQuantile(0.99) * 1e-3;
  }

  // Run() returned, so every worker's teardown flushed its node's replica
  // folds to the owners: the owners now hold every push.
  std::vector<float> final_values(kKeys * kLen);
  for (uint64_t k = 0; k < kKeys; ++k) {
    system.GetValue(k, final_values.data() + k * kLen);
  }
  std::vector<uint64_t> pushes(kKeys, 0);
  std::vector<float> lo(kKeys * kLen, std::numeric_limits<float>::infinity());
  std::vector<float> hi(kKeys * kLen, -std::numeric_limits<float>::infinity());
  for (const Client& c : clients) {
    for (uint64_t k = 0; k < kKeys; ++k) pushes[k] += c.pushes[k];
    for (size_t i = 0; i < lo.size(); ++i) {
      lo[i] = std::min(lo[i], c.lo[i]);
      hi[i] = std::max(hi[i], c.hi[i]);
    }
  }
  for (const std::string& problem :
       {CheckPushTotals(initial, final_values, pushes, kLen, kDelta, 0.0),
        CheckPulledInRange(initial, final_values, lo, hi)}) {
    if (!problem.empty()) out.problems.push_back(problem);
  }
  return out;
}

}  // namespace e2e
