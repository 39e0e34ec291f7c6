#pragma once
// The pluggable search interface behind every auto-tuner in the optimizer
// zoo (docs/optimizers.md). An Optimizer is a step machine:
//
//   bind(evaluator)            once, before the first propose
//   propose() -> batch         the next candidates to measure
//   observe(batch, results)    the measured outcomes, same order
//   ... repeat ...
//   finish(evaluator)          after the last observe
//
// The driver (run_optimizer) owns the loop: it measures each proposed batch
// through Evaluator::evaluate_batch — which charges the virtual clock,
// caches, journals and keeps every result a pure function of the setting —
// and consults the StopCriteria between steps. Because an optimizer sees
// the world only through batch results, and those are bit-identical for any
// worker count, every optimizer written against this interface is
// deterministic across 0/4/8 workers for free.
//
// Two hooks exist solely so the ported legacy searchers can reproduce their
// pre-refactor loops exactly (the regression pins in
// tests/test_optimizer_zoo.cpp):
//   - iteration_boundary(): whether the driver marks an evaluator iteration
//     after the step just observed (a GA marks per generation, Artemis per
//     32 single evaluations);
//   - stop_check_allowed(): whether the driver may consult the stop
//     criteria before the NEXT propose. Ports return false at mid-phase
//     points their original loops did not guard — e.g. between a GA's
//     initial population and its first generation, or before a
//     hill-climber's restart evaluation.
//
// Resume is journal replay, for every optimizer: a fresh instance re-driven
// against a journal-loaded evaluator re-proposes the interrupted run's
// batches, has their journaled results served back, and continues past the
// kill point bit-identically (docs/fault-tolerance.md). The one requirement
// is that an optimizer's proposals are a deterministic function of its seed
// and of the results it has observed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "space/setting.hpp"
#include "tuner/evaluator.hpp"

namespace cstuner::search {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Registry name ("anneal", "island-ga", ...).
  virtual std::string name() const = 0;

  /// Binds the optimizer to the engine it will be driven against: resolve
  /// the search space, allocate populations, run offline stages (Garvey's
  /// dataset + forest). Called exactly once, before the first propose().
  /// Must not evaluate anything — all measurements flow through propose().
  virtual void bind(tuner::Evaluator& evaluator) = 0;

  /// The next batch of candidates to measure. An empty batch means the
  /// optimizer has exhausted its search (the paper's "evaluated completely"
  /// case); the driver stops.
  virtual std::vector<space::Setting> propose() = 0;

  /// Outcomes for the batch, same order. The only channel by which
  /// measurements reach the optimizer.
  virtual void observe(const std::vector<space::Setting>& batch,
                       const std::vector<tuner::EvalResult>& results) = 0;

  /// Whether the driver marks an evaluator iteration after the step just
  /// observed. Consulted once per step, after observe().
  virtual bool iteration_boundary() const { return true; }

  /// Whether the driver may consult the stop criteria before the next
  /// propose(). Consulted once per step, after observe() (and before the
  /// first propose with no step observed yet).
  virtual bool stop_check_allowed() const { return true; }

  /// Called once after the loop ends (budget, exhaustion or cancellation
  /// between steps). Ports emit trailing iteration marks here.
  virtual void finish(tuner::Evaluator& evaluator) { (void)evaluator; }

  /// Writes the snapshot record {optimizer, steps}: which optimizer wrote
  /// the checkpoint and how many steps it had completed.
  void serialize_state(JsonWriter& json) const;

  /// Completed propose/observe rounds, maintained by the driver.
  std::size_t completed_steps() const { return completed_steps_; }
  void note_step() { ++completed_steps_; }

 private:
  std::size_t completed_steps_ = 0;
};

/// Outcome of one driver run (counters only; results live in the
/// evaluator's best/trace state).
struct DriveResult {
  std::size_t steps = 0;      ///< propose/observe rounds completed
  std::size_t proposals = 0;  ///< settings proposed across all rounds
  bool exhausted = false;     ///< out of candidates, or stalled
};

/// Consecutive steps without a new unique evaluation after which the driver
/// ends a run as exhausted. Cache hits charge no virtual time, so an
/// optimizer whose proposals have collapsed onto settings it already
/// measured would otherwise never reach a virtual budget. The longest such
/// stall of any run that ends on its own is 7792 steps (pso, cheby/v100,
/// seed 7, 60 s); a guarded livelock costs a fraction of a second of wall.
inline constexpr std::size_t kMaxStallSteps = 20000;

/// Drives `optimizer` against `evaluator` until the stop criteria are met
/// (at a boundary the optimizer allows), the optimizer exhausts its
/// candidates, or kMaxStallSteps steps in a row add no unique evaluation
/// (reported as exhausted). When a Checkpoint is attached to the evaluator,
/// the optimizer's {optimizer, steps} record is pushed into it at every
/// iteration boundary, just before the mark flushes the journal.
DriveResult run_optimizer(Optimizer& optimizer, tuner::Evaluator& evaluator,
                          const tuner::StopCriteria& stop);

}  // namespace cstuner::search
