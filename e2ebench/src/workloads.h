#ifndef LAPSE_E2EBENCH_WORKLOADS_H_
#define LAPSE_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace e2e {

// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Cluster-shape and mechanism overrides for the README's reference
  // figures; 0 / -1 keep the workload's own setting.
  int nodes = 0;
  int workers = 0;
  int coalescing = -1;
};

// Each workload generates its inputs from opt.seed, builds the system,
// runs whole rounds until opt.seconds have passed, checks the outputs, and
// returns its metrics. items_per_s is the median over rounds of one
// round's items divided by its wall time.

// DSGD matrix factorization with parameter blocking (2 nodes x 2 workers).
Outcome RunMfDsgd(const Options& opt);

// ComplEx knowledge-graph embeddings with data clustering and lookahead
// localizes (2 nodes x 1 worker).
Outcome RunKgeComplex(const Options& opt);

// Closed-loop Zipf serving mix with adaptive placement, replication and
// coalescing on (2 nodes x 1 worker).
Outcome RunZipfServing(const Options& opt);

}  // namespace e2e

#endif  // LAPSE_E2EBENCH_WORKLOADS_H_
