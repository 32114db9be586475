#ifndef LAPSE_E2EBENCH_CHECKS_H_
#define LAPSE_E2EBENCH_CHECKS_H_

// Correctness checks made independently of the program under test: each
// takes plain arrays the benchmark read back through the public API (or
// computed itself) and returns what is wrong, empty when nothing is. They
// are free of PS types so the tests can hand them deliberately wrong input.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// --- mf_dsgd --------------------------------------------------------------

struct Cell {
  uint32_t row;
  uint32_t col;
  float value;
};

struct DsgdReference {
  std::vector<float> factors;  // (rows + cols) * rank, rows first
  std::vector<double> losses;  // mean squared residual per epoch
};

// Runs `epochs` epochs of DSGD sequentially, with the update order that
// parameter blocking over `num_workers` workers implies: rows and columns
// are split into num_workers contiguous ranges (range b = [b*n/T,
// (b+1)*n/T)); in subepoch j worker w processes, in input order, its cells
// whose column lies in block (w + j) mod T. Blocks of one subepoch share no
// row and no column, so running them one after the other gives the result
// every parallel schedule of them gives. Each step reads both factors,
// computes err = w.h - x, and adds -lr*(err*h + reg*w) to w and
// -lr*(err*w + reg*h) to h. An epoch's loss sums err^2 per worker in its
// processing order, then over workers, divided by the cell count.
DsgdReference SequentialDsgd(const std::vector<Cell>& cells, uint64_t rows,
                             uint64_t cols, int rank, float lr, float reg,
                             int num_workers, int epochs,
                             std::vector<float> initial_factors);

// Every factor value must equal the reference within `tol` (absolute).
std::string CheckFactorsMatch(const std::vector<float>& actual,
                              const std::vector<float>& expected, double tol);

// Per-epoch losses must agree to a relative `rel_tol` (the program sums the
// workers' partial losses in completion order, so the last bits may vary).
std::string CheckLossesMatch(const std::vector<double>& actual,
                             const std::vector<double>& expected,
                             double rel_tol);

// --- kge_complex ------------------------------------------------------------

// One PS value stored as [embedding | AdaGrad accumulator], halves of equal
// length. Every value must be finite and every accumulator entry >= 0;
// keys with `touched[k]` set must have every accumulator entry > 0.
std::string CheckAdagradState(const std::vector<std::vector<float>>& values,
                              const std::vector<bool>& touched);

// Training must lower the evaluation loss.
std::string CheckLossDecreased(double before, double after);

// `got` must equal `want` bit for bit (compared as raw bytes, so NaN
// payloads and signed zeros count).
std::string CheckBitwiseEqual(const std::vector<float>& got,
                              const std::vector<float>& want,
                              const std::string& what);

// --- zipf_serving ---------------------------------------------------------

// Every push adds `delta` to each of a key's `len` entries. After all folds
// are flushed, final[k] must be initial[k] + pushes[k] * delta, within
// `tol` (absolute).
std::string CheckPushTotals(const std::vector<float>& initial,
                            const std::vector<float>& final_values,
                            const std::vector<uint64_t>& pushes, size_t len,
                            float delta, double tol);

// Deltas are all positive, so every pulled entry must lie in
// [initial, final] of its key. `lo`/`hi` hold the smallest and largest
// value pulled per entry (keys never pulled hold +inf / -inf).
std::string CheckPulledInRange(const std::vector<float>& initial,
                               const std::vector<float>& final_values,
                               const std::vector<float>& lo,
                               const std::vector<float>& hi);

}  // namespace e2e

#endif  // LAPSE_E2EBENCH_CHECKS_H_
