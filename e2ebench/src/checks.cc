#include "checks.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace e2e {

namespace {

// Start of contiguous range b when n items are split into `parts` ranges.
uint64_t RangeBegin(uint64_t n, int parts, int b) {
  return static_cast<uint64_t>(b) * n / static_cast<uint64_t>(parts);
}

// The range holding item i (linear scan; called once per cell per run).
int RangeOf(uint64_t n, int parts, uint64_t i) {
  int b = 0;
  while (b + 1 < parts && RangeBegin(n, parts, b + 1) <= i) ++b;
  return b;
}

}  // namespace

DsgdReference SequentialDsgd(const std::vector<Cell>& cells, uint64_t rows,
                             uint64_t cols, int rank, float lr, float reg,
                             int num_workers, int epochs,
                             std::vector<float> initial_factors) {
  const int t_workers = num_workers;
  // Cells of (worker, block), in input order.
  std::vector<std::vector<uint32_t>> grid(
      static_cast<size_t>(t_workers) * t_workers);
  for (uint32_t i = 0; i < cells.size(); ++i) {
    const int w = RangeOf(rows, t_workers, cells[i].row);
    const int b = RangeOf(cols, t_workers, cells[i].col);
    grid[static_cast<size_t>(w) * t_workers + b].push_back(i);
  }

  DsgdReference ref;
  ref.factors = std::move(initial_factors);
  float* f = ref.factors.data();
  std::vector<float> dw(rank);
  std::vector<float> dh(rank);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::vector<double> worker_loss(t_workers, 0.0);
    for (int sub = 0; sub < t_workers; ++sub) {
      for (int w = 0; w < t_workers; ++w) {
        const int block = (w + sub) % t_workers;
        for (const uint32_t idx : grid[static_cast<size_t>(w) * t_workers +
                                       block]) {
          const Cell& c = cells[idx];
          float* wi = f + static_cast<uint64_t>(c.row) * rank;
          float* hj = f + (rows + c.col) * rank;
          float dot = 0;
          for (int t = 0; t < rank; ++t) dot += wi[t] * hj[t];
          const float err = dot - c.value;
          worker_loss[w] += static_cast<double>(err) * err;
          // Both deltas are computed from the values read before the
          // step, then added, as a pull followed by a push would.
          for (int t = 0; t < rank; ++t) {
            dw[t] = -lr * (err * hj[t] + reg * wi[t]);
            dh[t] = -lr * (err * wi[t] + reg * hj[t]);
          }
          for (int t = 0; t < rank; ++t) {
            wi[t] += dw[t];
            hj[t] += dh[t];
          }
        }
      }
    }
    double loss = 0;
    for (const double l : worker_loss) loss += l;
    ref.losses.push_back(cells.empty()
                             ? 0.0
                             : loss / static_cast<double>(cells.size()));
  }
  return ref;
}

std::string CheckFactorsMatch(const std::vector<float>& actual,
                              const std::vector<float>& expected,
                              double tol) {
  if (actual.size() != expected.size()) {
    return "factor count differs from the sequential reference";
  }
  double worst = 0;
  size_t worst_at = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    const double d = std::fabs(static_cast<double>(actual[i]) - expected[i]);
    if (!(d <= worst)) {  // also catches NaN
      worst = std::isnan(d) ? INFINITY : d;
      worst_at = i;
    }
  }
  if (worst <= tol) return "";
  std::ostringstream os;
  os << "factor entry " << worst_at << " differs from the sequential DSGD "
     << "reference by " << worst << " (tolerance " << tol << ")";
  return os.str();
}

std::string CheckLossesMatch(const std::vector<double>& actual,
                             const std::vector<double>& expected,
                             double rel_tol) {
  if (actual.size() != expected.size()) {
    return "epoch count differs from the sequential reference";
  }
  for (size_t e = 0; e < actual.size(); ++e) {
    const double scale = std::fmax(std::fabs(expected[e]), 1e-300);
    if (!(std::fabs(actual[e] - expected[e]) <= rel_tol * scale)) {
      std::ostringstream os;
      os << "epoch " << e << " loss " << actual[e]
         << " differs from the sequential reference " << expected[e];
      return os.str();
    }
  }
  return "";
}

std::string CheckAdagradState(const std::vector<std::vector<float>>& values,
                              const std::vector<bool>& touched) {
  for (size_t k = 0; k < values.size(); ++k) {
    const std::vector<float>& v = values[k];
    const size_t half = v.size() / 2;
    for (size_t i = 0; i < v.size(); ++i) {
      if (!std::isfinite(v[i])) {
        return "key " + std::to_string(k) + " holds a non-finite value";
      }
    }
    for (size_t i = half; i < v.size(); ++i) {
      if (v[i] < 0) {
        return "key " + std::to_string(k) + " has a negative accumulator";
      }
      if (k < touched.size() && touched[k] && !(v[i] > 0)) {
        return "key " + std::to_string(k) +
               " was trained but has a zero accumulator entry";
      }
    }
  }
  return "";
}

std::string CheckLossDecreased(double before, double after) {
  if (after < before) return "";
  std::ostringstream os;
  os << "evaluation loss did not decrease (" << before << " -> " << after
     << ")";
  return os.str();
}

std::string CheckBitwiseEqual(const std::vector<float>& got,
                              const std::vector<float>& want,
                              const std::string& what) {
  if (got.size() != want.size()) return what + ": length differs";
  if (got.empty() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return "";
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      std::ostringstream os;
      os << what << ": entry " << i << " is " << got[i] << ", expected "
         << want[i];
      return os.str();
    }
  }
  return "";
}

std::string CheckPushTotals(const std::vector<float>& initial,
                            const std::vector<float>& final_values,
                            const std::vector<uint64_t>& pushes, size_t len,
                            float delta, double tol) {
  if (initial.size() != final_values.size() ||
      initial.size() != pushes.size() * len) {
    return "push-total check: array sizes disagree";
  }
  for (size_t k = 0; k < pushes.size(); ++k) {
    for (size_t e = 0; e < len; ++e) {
      const size_t i = k * len + e;
      const double want = static_cast<double>(initial[i]) +
                          static_cast<double>(pushes[k]) * delta;
      if (!(std::fabs(final_values[i] - want) <= tol)) {
        std::ostringstream os;
        os << "key " << k << " entry " << e << " ends at " << final_values[i]
           << ", but " << pushes[k] << " pushes of " << delta << " from "
           << initial[i] << " give " << want;
        return os.str();
      }
    }
  }
  return "";
}

std::string CheckPulledInRange(const std::vector<float>& initial,
                               const std::vector<float>& final_values,
                               const std::vector<float>& lo,
                               const std::vector<float>& hi) {
  if (initial.size() != final_values.size() || lo.size() != initial.size() ||
      hi.size() != initial.size()) {
    return "pulled-range check: array sizes disagree";
  }
  for (size_t i = 0; i < initial.size(); ++i) {
    if (lo[i] > hi[i]) continue;  // never pulled
    if (!(lo[i] >= initial[i] && hi[i] <= final_values[i])) {
      std::ostringstream os;
      os << "entry " << i << " was pulled as [" << lo[i] << ", " << hi[i]
         << "], outside [" << initial[i] << ", " << final_values[i] << "]";
      return os.str();
    }
  }
  return "";
}

}  // namespace e2e
