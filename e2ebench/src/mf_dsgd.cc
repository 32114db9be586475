// mf_dsgd: DSGD on Lapse with one column-block localize per subepoch.
// After each localize every access is node-local, so the worker fast path
// does nearly all the work; two workers per node share node-level state.

#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "mf/dsgd.h"
#include "mf/matrix_gen.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace lapse;

constexpr uint64_t kRows = 20'000;
constexpr uint64_t kCols = 2'000;
constexpr uint64_t kCells = 1'000'000;  // one round = one epoch over these
constexpr int kTruthRank = 8;
constexpr int kRank = 16;
// Float rounding only: the PS applies the same float operations in the
// same order as the sequential reference.
constexpr double kFactorTol = 1e-5;
constexpr double kLossRelTol = 1e-9;

std::vector<float> ReadFactors(ps::PsSystem& system, uint64_t keys) {
  std::vector<float> all(keys * kRank);
  for (uint64_t k = 0; k < keys; ++k) {
    system.GetValue(k, all.data() + k * kRank);
  }
  return all;
}

}  // namespace

Outcome RunMfDsgd(const Options& opt) {
  const int nodes = opt.nodes > 0 ? opt.nodes : 2;
  const int workers = opt.workers > 0 ? opt.workers : 2;
  Outcome out;

  const double t_gen = SecondsSinceStart();
  mf::MatrixGenConfig gen;
  gen.rows = kRows;
  gen.cols = kCols;
  gen.nnz = kCells;
  gen.rank = kTruthRank;
  gen.noise = 0.1f;
  gen.seed = opt.seed;
  const mf::SparseMatrix matrix = mf::GenerateLowRankMatrix(gen);

  const double t_sys = SecondsSinceStart();
  mf::DsgdConfig dsgd;
  dsgd.rank = kRank;
  dsgd.epochs = 1;
  dsgd.seed = opt.seed;
  ps::Config cfg = mf::MakeDsgdPsConfig(matrix, dsgd, nodes, workers,
                                        bench::BenchLatency());
  if (opt.trace) cfg.obs = TracedObs();
  ps::PsSystem system(cfg);

  const double t_init = SecondsSinceStart();
  mf::InitFactorsPs(system, matrix, dsgd);
  out.setup_s = SecondsSinceStart();
  out.layer["setup.generate_s"] = t_sys - t_gen;
  out.layer["setup.system_s"] = t_init - t_sys;
  out.layer["setup.init_s"] = out.setup_s - t_init;

  // Untimed: the reference starts from the factors as the PS holds them.
  const uint64_t keys = kRows + kCols;
  std::vector<float> initial = ReadFactors(system, keys);

  ResetObsHistograms(system);
  const Counters before = ReadCounters(system);
  const HostSample host_before = SampleHost();
  std::vector<double> losses;
  const double start = SecondsSinceStart();
  do {
    const double r0 = SecondsSinceStart();
    const std::vector<mf::EpochResult> epoch =
        mf::TrainDsgdOnPs(system, matrix, dsgd);
    out.round_s.push_back(SecondsSinceStart() - r0);
    losses.push_back(epoch.at(0).loss);
  } while (SecondsSinceStart() - start < opt.seconds);
  const HostSample host_after = SampleHost();
  const Counters after = ReadCounters(system);

  FinishRounds(static_cast<int64_t>(matrix.nnz()), &out);
  AddLayerMetrics(system, before, after, host_before, host_after, &out);

  std::vector<Cell> cells;
  cells.reserve(matrix.nnz());
  for (const mf::MatrixEntry& e : matrix.entries) {
    cells.push_back({e.row, e.col, e.value});
  }
  const DsgdReference ref = SequentialDsgd(
      cells, kRows, kCols, kRank, dsgd.lr, dsgd.reg, nodes * workers,
      static_cast<int>(losses.size()), std::move(initial));
  for (const std::string& problem :
       {CheckFactorsMatch(ReadFactors(system, keys), ref.factors, kFactorTol),
        CheckLossesMatch(losses, ref.losses, kLossRelTol)}) {
    if (!problem.empty()) out.problems.push_back(problem);
  }
  return out;
}

}  // namespace e2e
