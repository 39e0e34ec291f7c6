// The zoo sweep of cli-cstuner's traced run: eleven registry optimizers on
// every cell, in process, each request a fresh Evaluator on the benchmark's
// own pool with the default 60 s virtual budget and a 3 s wall deadline,
// driven step by step with each protocol call timed.

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/simulator.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "search/registry.hpp"
#include "space/search_space.hpp"
#include "stencil/stencils.hpp"

namespace perfbench {

using namespace cstuner;

search::DriveResult run_optimizer_traced(search::Optimizer& optimizer,
                                         tuner::Evaluator& evaluator,
                                         const tuner::StopCriteria& stop,
                                         StepTimes& times) {
  auto t0 = Clock::now();
  optimizer.bind(evaluator);
  times.bind_s += seconds_since(t0);
  search::DriveResult out;
  bool stop_allowed = optimizer.stop_check_allowed();
  for (;;) {
    if (stop_allowed && stop.reached(evaluator)) break;
    t0 = Clock::now();
    const std::vector<space::Setting> batch = optimizer.propose();
    times.propose_s += seconds_since(t0);
    if (batch.empty()) {
      out.exhausted = true;
      break;
    }
    times.proposals += batch.size();
    const std::size_t evals_before = evaluator.unique_evaluations();
    t0 = Clock::now();
    const auto results = evaluator.evaluate_batch(batch);
    times.evaluate_batch_s += seconds_since(t0);
    // Only a batch that measured something can hold new distinct settings
    // (a livelock's all-cache-hit batches skip this entirely).
    if (evaluator.unique_evaluations() != evals_before) {
      for (const space::Setting& s : batch) {
        if (times.seen.insert(s.hash()).second) times.distinct.push_back(s);
      }
    }
    t0 = Clock::now();
    optimizer.observe(batch, results);
    times.observe_s += seconds_since(t0);
    optimizer.note_step();
    ++out.steps;
    out.proposals += batch.size();
    if (optimizer.iteration_boundary()) {
      if (tuner::Checkpoint* cp = evaluator.checkpoint()) {
        JsonWriter state;
        optimizer.serialize_state(state);
        cp->set_optimizer_state_json(state.str());
      }
      evaluator.mark_iteration();
    }
    stop_allowed = optimizer.stop_check_allowed();
  }
  optimizer.finish(evaluator);
  return out;
}

namespace {

constexpr double kDeadlineS = 3.0;
constexpr double kBudgetS = 60.0;       // the CLI's default --budget
constexpr std::uint64_t kTuneSeed = 7;  // the CLI's default --seed

/// Sets a request's cancel flag once its wall deadline passes. One thread
/// serves every request; it sleeps between requests.
class Watchdog {
 public:
  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(std::atomic<bool>* flag, double seconds) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      flag_ = flag;
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
    }
    cv_.notify_all();
  }
  /// After this returns the watchdog no longer touches the armed flag.
  void disarm() {
    std::lock_guard<std::mutex> lock(mutex_);
    flag_ = nullptr;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!quit_) {
      if (flag_ == nullptr) {
        cv_.wait(lock);
      } else if (Clock::now() >= deadline_) {
        flag_->store(true, std::memory_order_release);
        flag_ = nullptr;
      } else {
        cv_.wait_until(lock, deadline_);
      }
    }
  }

  std::mutex mutex_;  // guards the four fields below
  std::condition_variable cv_;
  std::atomic<bool>* flag_ = nullptr;
  Clock::time_point deadline_;
  bool quit_ = false;
  std::thread thread_;  // last: starts after the fields it reads
};

/// Per-cell state built during set-up and shared by the cell's requests.
struct CellContext {
  Cell cell;
  space::SearchSpace space;
  gpusim::Simulator sim;
  explicit CellContext(const Cell& c)
      : cell(c),
        space(stencil::make_stencil(c.stencil)),
        sim(gpusim::arch_by_name(c.arch)) {}
};

struct World {
  std::unique_ptr<ThreadPool> pool;
  std::vector<std::unique_ptr<CellContext>> cells;
};

World build_world(const std::vector<Cell>& cells) {
  World world;
  world.pool = std::make_unique<ThreadPool>(kPoolWorkers);
  for (const Cell& cell : cells) {
    world.cells.push_back(std::make_unique<CellContext>(cell));
  }
  return world;
}

/// Per-request counts the traced run needs besides the step times.
struct Counts {
  std::uint64_t unique_evals = 0;
  std::uint64_t cache_hits = 0;
};

Request zoo_request(const std::string& optimizer_name, CellContext& ctx,
                    ThreadPool& pool, Watchdog& dog, StepTimes* traced,
                    Counts* counts) {
  obs::Counter& hits = obs::metrics().counter("evaluator.cache_hits");
  const std::uint64_t hits0 = hits.value();
  Request r;
  r.cell = optimizer_name + "/" + ctx.cell.name();
  const auto t0 = Clock::now();
  std::atomic<bool> cancel{false};
  {
    search::OptimizerOptions options;
    options.seed = kTuneSeed;
    auto optimizer = search::optimizer_registry().make(optimizer_name, options);
    tuner::Evaluator evaluator(ctx.sim, ctx.space, {}, kTuneSeed, &pool);
    evaluator.set_cancel_flag(&cancel);
    tuner::StopCriteria stop;
    stop.max_virtual_seconds = kBudgetS;
    dog.arm(&cancel, kDeadlineS);
    try {
      if (traced != nullptr) {
        run_optimizer_traced(*optimizer, evaluator, stop, *traced);
      } else {
        search::run_optimizer(*optimizer, evaluator, stop);
      }
      r.ok = true;
    } catch (const CancelledError&) {
      r.cancelled = true;
      r.error = "cancelled by the wall deadline";
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    dog.disarm();
    r.best_ms = evaluator.best_time_ms();
    if (r.ok && !(std::isfinite(r.best_ms) && r.best_ms > 0.0 &&
                  evaluator.best_setting().has_value() &&
                  ctx.space.is_valid(*evaluator.best_setting()))) {
      r.ok = false;
      r.error = "no valid finite best setting";
    }
    if (r.ok) r.digest = digest(evaluator);
    if (counts != nullptr) {
      counts->unique_evals = evaluator.unique_evaluations();
    }
  }
  r.wall_s = seconds_since(t0);
  if (counts != nullptr) counts->cache_hits = hits.value() - hits0;
  return r;
}

}  // namespace

RunReport run_zoo(const Options& options) {
  if (options.cells.empty()) throw UsageError("zoo needs --cells");
  RunReport report;
  const std::vector<std::string>& optimizers = zoo_optimizers();
  Watchdog dog;
  World world = build_world(options.cells);
  const std::size_t per_cycle = optimizers.size() * world.cells.size();
  StepTimes steps;
  double oracle_s = 0.0;
  double traced_wall_s = 0.0;
  double untraced_ok_wall_s = 0.0;
  double traced_ok_wall_s = 0.0;
  Counts total;
  std::uint64_t oracle_settings = 0;

  const auto start = Clock::now();
  for (std::size_t idx : cycle_order(per_cycle, options.seed, 0)) {
    const std::string& name = optimizers[idx / world.cells.size()];
    CellContext& ctx = *world.cells[idx % world.cells.size()];
    StepTimes one;
    Counts counts;
    Request t = zoo_request(name, ctx, *world.pool, dog, &one, &counts);
    if (t.ok) {
      // The untraced reference: run_optimizer must give the same bits.
      const Request r =
          zoo_request(name, ctx, *world.pool, dog, nullptr, nullptr);
      if (r.digest != t.digest) {
        report.errors.push_back(t.cell + ": traced driver digest " +
                                t.digest + " != run_optimizer " + r.digest);
      }
      untraced_ok_wall_s += r.wall_s;
      traced_ok_wall_s += t.wall_s;
    }
    // Oracle replay: the request's distinct valid settings through the
    // batch oracle, as evaluate_batch measures them.
    std::vector<space::Setting> valid;
    for (const space::Setting& s : one.distinct) {
      if (ctx.space.is_valid(s)) valid.push_back(s);
    }
    std::vector<double> out(valid.size());
    const auto& inv = ctx.sim.invariants(ctx.space.spec());
    const auto o0 = Clock::now();
    ctx.sim.profile_times(inv, valid, out);
    oracle_s += seconds_since(o0);
    oracle_settings += valid.size();
    steps.bind_s += one.bind_s;
    steps.propose_s += one.propose_s;
    steps.evaluate_batch_s += one.evaluate_batch_s;
    steps.observe_s += one.observe_s;
    steps.proposals += one.proposals;
    total.unique_evals += counts.unique_evals;
    total.cache_hits += counts.cache_hits;
    traced_wall_s += t.wall_s;
    report.requests.push_back(std::move(t));
  }
  report.timed_wall_s = seconds_since(start);

  const auto n = static_cast<std::uint64_t>(report.requests.size());
  const double dn = static_cast<double>(n);
  const double evals = static_cast<double>(total.unique_evals);
  const double proposals = static_cast<double>(steps.proposals);
  const double named = steps.bind_s + steps.propose_s +
                       steps.evaluate_batch_s + steps.observe_s;
  report.layers = {
      {"search.bind_s", steps.bind_s / dn, "s", n},
      {"search.propose_s", steps.propose_s / dn, "s", n},
      {"search.observe_s", steps.observe_s / dn, "s", n},
      {"tuner.evaluate_batch_s", steps.evaluate_batch_s / dn, "s", n},
      {"gpusim.oracle_ns_per_eval",
       oracle_settings > 0
           ? oracle_s * 1e9 / static_cast<double>(oracle_settings)
           : 0.0,
       "ns", oracle_settings},
      {"tuner.bookkeeping_ns_per_eval",
       evals > 0 ? (steps.evaluate_batch_s - oracle_s) * 1e9 / evals : 0.0,
       "ns", total.unique_evals},
      {"search.useful_frac", proposals > 0 ? evals / proposals : 0.0, "frac",
       steps.proposals},
      {"tuner.cache_hit_frac",
       proposals > 0 ? static_cast<double>(total.cache_hits) / proposals
                     : 0.0,
       "frac", steps.proposals},
      {"unattributed_frac",
       traced_wall_s > 0 ? 1.0 - named / traced_wall_s : 0.0, "frac", n},
      {"tracing_overhead_frac",
       untraced_ok_wall_s > 0
           ? traced_ok_wall_s / untraced_ok_wall_s - 1.0
           : 0.0,
       "frac", n},
  };
  return report;
}

}  // namespace perfbench
