// kge_complex: ComplEx knowledge-graph embeddings with data clustering and
// a lookahead LocalizeAsync per triple. Entities are Zipf-skewed and the
// AdaGrad state lives in the PS, so the relocation protocol (localize,
// instruct, transfer through both drain threads) does the work.

#include <string>
#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "kge/kg_gen.h"
#include "kge/kge_train.h"
#include "util/sync.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace lapse;

constexpr uint32_t kEntities = 10'000;
constexpr uint32_t kRelations = 64;
constexpr uint32_t kTriples = 20'000;  // one round = one epoch over these
constexpr size_t kDim = 64;
constexpr size_t kEvalSample = 2'000;
constexpr size_t kPullChunk = 64;  // keys per Pull of the read-back check

std::vector<std::vector<float>> ReadValues(ps::PsSystem& system,
                                           uint64_t keys) {
  std::vector<std::vector<float>> values(keys);
  for (uint64_t k = 0; k < keys; ++k) {
    values[k].resize(system.layout().Length(k));
    system.GetValue(k, values[k].data());
  }
  return values;
}

// Every worker pulls every key and compares with the direct read: keys its
// node owns come through the fast local path, the rest through messages.
void CheckPullsMatchDirectReads(ps::PsSystem& system,
                                const std::vector<std::vector<float>>& direct,
                                std::vector<std::string>* problems) {
  Mutex mu;
  system.Run([&](ps::Worker& w) {
    std::vector<Key> keys;
    std::vector<float> got;
    std::vector<float> want;
    for (Key first = 0; first < direct.size(); first += kPullChunk) {
      keys.clear();
      want.clear();
      for (Key k = first; k < direct.size() && k < first + kPullChunk; ++k) {
        keys.push_back(k);
        want.insert(want.end(), direct[k].begin(), direct[k].end());
      }
      got.assign(want.size(), 0.0f);
      w.Pull(keys, got.data());
      const std::string problem = CheckBitwiseEqual(
          got, want,
          "node " + std::to_string(w.node()) + " pull of keys from " +
              std::to_string(first));
      if (!problem.empty()) {
        MutexLock lock(mu);
        problems->push_back(problem);
        return;
      }
    }
  });
}

}  // namespace

Outcome RunKgeComplex(const Options& opt) {
  const int nodes = opt.nodes > 0 ? opt.nodes : 2;
  const int workers = opt.workers > 0 ? opt.workers : 1;
  Outcome out;

  const double t_gen = SecondsSinceStart();
  kge::KgGenConfig gen;
  gen.num_entities = kEntities;
  gen.num_relations = kRelations;
  gen.num_triples = kTriples;
  gen.seed = opt.seed;
  const kge::KnowledgeGraph kg = kge::GenerateKg(gen);

  const double t_sys = SecondsSinceStart();
  kge::KgeConfig kcfg;
  kcfg.model = kge::KgeConfig::Model::kComplEx;
  kcfg.dim = kDim;
  kcfg.epochs = 1;
  kcfg.data_clustering = true;
  kcfg.latency_hiding = true;
  kcfg.seed = opt.seed;
  ps::Config cfg = kge::MakeKgePsConfig(kg, kcfg, nodes, workers,
                                        bench::BenchLatency());
  if (opt.trace) cfg.obs = TracedObs();
  ps::PsSystem system(cfg);

  const double t_init = SecondsSinceStart();
  kge::InitKgeParams(system, kg, kcfg);
  out.setup_s = SecondsSinceStart();
  out.layer["setup.generate_s"] = t_sys - t_gen;
  out.layer["setup.system_s"] = t_init - t_sys;
  out.layer["setup.init_s"] = out.setup_s - t_init;

  const double eval_before = kge::KgeEvalLoss(system, kg, kcfg, kEvalSample);

  ResetObsHistograms(system);
  const Counters before = ReadCounters(system);
  const HostSample host_before = SampleHost();
  const double start = SecondsSinceStart();
  double eval_after_first = 0;
  do {
    const double r0 = SecondsSinceStart();
    kge::TrainKge(system, kg, kcfg);
    out.round_s.push_back(SecondsSinceStart() - r0);
    // Each triple keeps its negatives in every epoch, so later rounds
    // memorize them and the evaluation loss climbs again; the first round
    // is the one that must lower it.
    if (out.round_s.size() == 1) {
      eval_after_first = kge::KgeEvalLoss(system, kg, kcfg, kEvalSample);
    }
  } while (SecondsSinceStart() - start < opt.seconds);
  const HostSample host_after = SampleHost();
  const Counters after = ReadCounters(system);

  FinishRounds(static_cast<int64_t>(kg.triples.size()), &out);
  AddLayerMetrics(system, before, after, host_before, host_after, &out);

  // Keys every round trains: both entities and the relation of each triple.
  const uint64_t keys = static_cast<uint64_t>(kg.num_entities) +
                        kg.num_relations;
  std::vector<bool> touched(keys, false);
  for (const kge::Triple& t : kg.triples) {
    touched[kge::EntityKey(t.s)] = true;
    touched[kge::EntityKey(t.o)] = true;
    touched[kge::RelationKey(kg, t.r)] = true;
  }
  const std::vector<std::vector<float>> values = ReadValues(system, keys);
  for (const std::string& problem :
       {CheckLossDecreased(eval_before, eval_after_first),
        CheckAdagradState(values, touched)}) {
    if (!problem.empty()) out.problems.push_back(problem);
  }
  CheckPullsMatchDirectReads(system, values, &out.problems);
  return out;
}

}  // namespace e2e
