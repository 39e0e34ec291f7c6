#pragma once
// In-process half of the csTuner benchmark (perfbench/README.md). run.py
// owns the cli-cstuner workload (fresh `cstuner tune` processes), the
// metric arithmetic and the cross-run digest checks; this driver runs
// serve-hot, the traced csTuner replay and the traced zoo sweep, and
// reports one JSON line of raw per-request records for run.py to reduce.

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "search/optimizer.hpp"
#include "tuner/evaluator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Every workload sizes its own pool to this many workers (plus the
/// calling thread: at most three compute threads per request).
inline constexpr std::size_t kPoolWorkers = 2;

/// One stencil on one GPU.
struct Cell {
  std::string stencil;
  std::string arch;
  std::string name() const { return stencil + "/" + arch; }
};

/// The zoo sweep's optimizers, each made through the optimizer registry:
/// every built-in one except `spread`, whose cost is the spread_sample call
/// cli-cstuner already measures. A fixed list, not the registry's current
/// contents, so a change that adds an optimizer does not change the sweep
/// it is measured on.
const std::vector<std::string>& zoo_optimizers();

/// Request order of cycle `cycle` of a run: a permutation of 0..n-1 drawn
/// from (seed, cycle). The seed only orders requests; it never changes what
/// a request computes, so per-cell digests are comparable across runs with
/// different seeds. A fresh order per cycle averages out which requests
/// happen to run side by side on serve-hot's two connections.
std::vector<std::size_t> cycle_order(std::size_t n, std::uint64_t seed,
                                     std::size_t cycle);

/// Output digest of one tune: IEEE-754 bits of the best time, the unique
/// evaluation count, IEEE-754 bits of the virtual time.
std::string digest(double best_ms, std::uint64_t evaluations,
                   double virtual_time_s);
std::string digest(const cstuner::tuner::Evaluator& evaluator);

/// Raw record of one timed request.
struct Request {
  std::string cell;
  double wall_s = 0.0;
  bool ok = false;
  bool cancelled = false;     ///< the wall deadline fired
  std::string error;          ///< why the request is not ok
  double best_ms = 0.0;       ///< best-so-far, also for cancelled requests
  std::string digest;         ///< "" when the output is not bit-comparable
};

/// One per-layer number.
struct Layer {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// The process's peak RSS (VmHWM), in MiB.
double peak_rss_mb();

struct RunReport {
  std::vector<double> setup_s;  ///< one entry per repeated set-up
  double timed_wall_s = 0.0;
  std::vector<Request> requests;
  std::vector<Layer> layers;     ///< traced runs only
  std::vector<std::string> errors;  ///< failed output checks

  /// Writes the report as one JSON line, with the process's peak RSS.
  void print() const;
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;    ///< serve-hot: where fresh daemon state goes
  std::vector<Cell> cells;  ///< replay and zoo: the cells, in order
};

RunReport run_serve(const Options& options);
RunReport run_replay(const Options& options);
/// Always traced: per-layer numbers for cli-cstuner's traced run.
RunReport run_zoo(const Options& options);
/// Returns the number of failed self-checks.
int run_selftest(const Options& options);

// --- zoo sweep internals shared with the self-test -------------------------

/// Wall time spent in each public step of the optimizer protocol.
struct StepTimes {
  double bind_s = 0.0;
  double propose_s = 0.0;
  double evaluate_batch_s = 0.0;
  double observe_s = 0.0;
  std::size_t proposals = 0;
  /// Distinct settings of the batches that measured anything, by content
  /// hash, first-seen order (for the oracle replay; a 64-bit hash collision
  /// would only drop one replayed setting from a timing).
  std::unordered_set<std::uint64_t> seen;
  std::vector<cstuner::space::Setting> distinct;
};

/// search::run_optimizer, step for step, with each call timed. Must stay
/// call-for-call identical to it: the self-test and the traced zoo
/// sweep check that both produce the same bits.
cstuner::search::DriveResult run_optimizer_traced(
    cstuner::search::Optimizer& optimizer,
    cstuner::tuner::Evaluator& evaluator,
    const cstuner::tuner::StopCriteria& stop, StepTimes& times);

}  // namespace perfbench
