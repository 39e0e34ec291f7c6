#include "search/optimizer.hpp"

#include "obs/obs.hpp"

namespace cstuner::search {

void Optimizer::serialize_state(JsonWriter& json) const {
  json.begin_object();
  json.field("optimizer", name());
  json.field("steps", static_cast<std::uint64_t>(completed_steps_));
  json.end_object();
}

DriveResult run_optimizer(Optimizer& optimizer, tuner::Evaluator& evaluator,
                          const tuner::StopCriteria& stop) {
  CSTUNER_TRACE_PHASE("tune.optimizer");
  optimizer.bind(evaluator);
  DriveResult out;
  bool stop_allowed = optimizer.stop_check_allowed();
  std::size_t stalled_steps = 0;
  for (;;) {
    if (stop_allowed && stop.reached(evaluator)) break;
    const std::vector<space::Setting> batch = optimizer.propose();
    if (batch.empty()) {
      out.exhausted = true;
      break;
    }
    const std::size_t evals_before = evaluator.unique_evaluations();
    const auto results = evaluator.evaluate_batch(batch);
    stalled_steps =
        evaluator.unique_evaluations() > evals_before ? 0 : stalled_steps + 1;
    optimizer.observe(batch, results);
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
    if (stalled_steps >= kMaxStallSteps) {
      out.exhausted = true;
      break;
    }
    stop_allowed = optimizer.stop_check_allowed();
  }
  optimizer.finish(evaluator);
  return out;
}

}  // namespace cstuner::search
