// Crash-consistency sweep (docs/durability.md): run a reference tune (and a
// reference serve session) against a FaultVfs, then replay the run with a
// simulated power cut armed after every k-th Vfs operation. After each cut
// the "machine" restarts and recovery must uphold the durability invariants
// the framework documents:
//
//   tune   a resumed checkpointed tune finishes bit-identical to the
//          uninterrupted reference — torn journal tails truncate, torn
//          snapshots fall back, nothing half-applied ever influences the
//          result;
//   serve  an acknowledged submit is never lost (the manifest the ack was
//          predicated on is durable), an unacknowledged one leaves no
//          adopted session, and a re-adopted session completes with the
//          reference bits.
//
// Any violation prints the cut point and exits nonzero. Every fault
// decision derives from fixed seeds, so a failing cut replays exactly.
//
//   crash_sweep [--mode tune|serve|all] [--stride N] [--budget S]
//               [--stencil NAME] [--universe N] [--seed N] [--json]

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/cs_tuner.hpp"
#include "gpusim/simulator.hpp"
#include "io/fault_vfs.hpp"
#include "io/vfs.hpp"
#include "serve/session_manager.hpp"
#include "space/search_space.hpp"
#include "stencil/stencils.hpp"
#include "tuner/checkpoint.hpp"
#include "tuner/evaluator.hpp"

namespace {

using namespace cstuner;

struct SweepConfig {
  std::string mode = "all";
  std::uint64_t stride = 37;
  double budget_s = 1.0;
  std::string stencil = "j3d7pt";
  std::uint64_t universe = 400;
  std::uint64_t seed = 42;
  bool json = false;
};

struct Fingerprint {
  std::string best_setting;
  std::uint64_t best_time_bits = 0;
  std::uint64_t virtual_time_bits = 0;
  std::uint64_t evaluations = 0;

  bool operator==(const Fingerprint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fingerprint& fp) {
  return os << "{setting=" << fp.best_setting << " time_bits=0x" << std::hex
            << fp.best_time_bits << " vt_bits=0x" << fp.virtual_time_bits
            << std::dec << " evals=" << fp.evaluations << "}";
}

struct SweepOutcome {
  std::uint64_t reference_ops = 0;
  std::uint64_t cuts = 0;
  std::uint64_t violations = 0;
};

// --- tune mode -------------------------------------------------------------

/// One checkpointed tune over `vfs`. Resumes from whatever the checkpoint
/// directory durably holds — on a fresh Vfs that is a clean slate.
Fingerprint run_tune(io::Vfs& vfs, const SweepConfig& config) {
  const auto spec = stencil::make_stencil(config.stencil);
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::a100());
  tuner::Evaluator evaluator(sim, space, {}, config.seed);
  evaluator.set_fault_injection(gpusim::FaultConfig::uniform(0.2, config.seed),
                                spec.name);

  tuner::Checkpoint checkpoint("sweep/checkpoint", &vfs);
  checkpoint.set_sync_policy(tuner::Checkpoint::SyncPolicy::kEvery);
  if (checkpoint.has_journal_file()) checkpoint.load();
  evaluator.set_checkpoint(&checkpoint);

  core::CsTunerOptions options;
  options.universe_size = config.universe;
  options.dataset_size = 48;
  options.seed = config.seed;
  core::CsTuner tuner(options);
  tuner.tune(evaluator, {.max_virtual_seconds = config.budget_s});
  checkpoint.flush();
  checkpoint.write_snapshot(evaluator.serialize_state());

  Fingerprint fp;
  const auto& best = evaluator.best_setting();
  fp.best_setting = best.has_value() ? best->to_string() : "none";
  fp.best_time_bits = std::bit_cast<std::uint64_t>(evaluator.best_time_ms());
  fp.virtual_time_bits =
      std::bit_cast<std::uint64_t>(evaluator.virtual_time_s());
  fp.evaluations = evaluator.unique_evaluations();
  return fp;
}

SweepOutcome sweep_tune(const SweepConfig& config) {
  SweepOutcome outcome;
  Fingerprint reference;
  {
    io::FaultVfs vfs;
    reference = run_tune(vfs, config);
    outcome.reference_ops = vfs.op_count();
  }
  std::cerr << "crash_sweep: tune reference " << reference << ", "
            << outcome.reference_ops << " vfs ops, stride " << config.stride
            << "\n";

  for (std::uint64_t cut = 1; cut <= outcome.reference_ops;
       cut += config.stride) {
    ++outcome.cuts;
    io::FaultVfs vfs;
    vfs.arm_power_cut(static_cast<std::int64_t>(cut));
    bool interrupted = false;
    Fingerprint got;
    try {
      got = run_tune(vfs, config);
    } catch (const Error&) {
      interrupted = true;
    }
    if (interrupted) {
      // Reboot and resume: the durable journal prefix replays, everything
      // lost re-measures deterministically.
      vfs.restart();
      try {
        got = run_tune(vfs, config);
      } catch (const Error& e) {
        std::cerr << "crash_sweep: VIOLATION at cut " << cut
                  << ": resume failed: " << e.what() << "\n";
        ++outcome.violations;
        continue;
      }
    }
    if (!(got == reference)) {
      std::cerr << "crash_sweep: VIOLATION at cut " << cut << ": resumed "
                << got << " != reference " << reference << "\n";
      ++outcome.violations;
    }
  }
  return outcome;
}

// --- serve mode ------------------------------------------------------------

serve::TuneRequest sweep_request(const SweepConfig& config) {
  serve::TuneRequest request;
  request.stencil = config.stencil;
  request.seed = config.seed;
  request.budget_s = config.budget_s;
  request.universe = config.universe;
  request.fault_rate = 0.2;
  return request;
}

serve::ServeOptions serve_options(io::Vfs& vfs) {
  serve::ServeOptions options;
  options.state_dir = "serve-state";
  options.warm_start = false;
  options.checkpoint_sync = tuner::Checkpoint::SyncPolicy::kEvery;
  options.vfs = &vfs;
  return options;
}

Fingerprint fingerprint_of(const serve::SessionResult& result) {
  Fingerprint fp;
  fp.best_setting = result.best_setting;
  fp.best_time_bits = result.best_time_bits;
  fp.virtual_time_bits = result.virtual_time_bits;
  fp.evaluations = result.evaluations;
  return fp;
}

SweepOutcome sweep_serve(const SweepConfig& config) {
  SweepOutcome outcome;
  Fingerprint reference;
  {
    io::FaultVfs vfs;
    serve::SessionManager manager(serve_options(vfs));
    const serve::SubmitOutcome out = manager.submit(sweep_request(config));
    if (!out.accepted) throw Error("reference submit rejected");
    const auto result = manager.result(out.id, 300.0);
    if (!result.has_value() ||
        result->state != serve::SessionState::kDone) {
      throw Error("reference serve session did not finish");
    }
    reference = fingerprint_of(*result);
    outcome.reference_ops = vfs.op_count();
  }
  std::cerr << "crash_sweep: serve reference " << reference << ", "
            << outcome.reference_ops << " vfs ops, stride " << config.stride
            << "\n";

  for (std::uint64_t cut = 1; cut <= outcome.reference_ops;
       cut += config.stride) {
    ++outcome.cuts;
    io::FaultVfs vfs;
    vfs.arm_power_cut(static_cast<std::int64_t>(cut));
    bool acked = false;
    std::uint64_t id = 0;
    try {
      serve::SessionManager manager(serve_options(vfs));
      try {
        const serve::SubmitOutcome out = manager.submit(sweep_request(config));
        acked = out.accepted;
        id = out.id;
      } catch (const Error&) {
        // The cut (or its aftermath) landed inside submit: not acked.
      }
      // Let the dispatch thread run to rest (done, or failed at the cut);
      // the manager's destructor drains whatever is left.
      if (acked) manager.result(id, 300.0);
    } catch (const Error&) {
      // The cut landed inside the manager's own construction: the daemon
      // never came up, so nothing was acknowledged.
    }
    vfs.restart();

    // Recovery: constructing the manager re-adopts every acknowledged
    // session and reruns it. This must never throw — torn manifests, torn
    // results and torn checkpoints are all expected post-crash states.
    try {
      serve::SessionManager manager(serve_options(vfs));
      const serve::ServeStats stats = manager.stats();
      const std::size_t known = stats.queued + stats.running + stats.resting;
      if (!acked) {
        if (manager.adopted() > 0) {
          std::cerr << "crash_sweep: VIOLATION at cut " << cut
                    << ": unacknowledged submit was adopted after restart\n";
          ++outcome.violations;
        }
        continue;
      }
      if (known == 0) {
        std::cerr << "crash_sweep: VIOLATION at cut " << cut
                  << ": acknowledged session lost after restart "
                  << "(manifest was not durable at ack time)\n";
        ++outcome.violations;
        continue;
      }
      const auto result = manager.result(id, 300.0);
      if (!result.has_value() ||
          result->state != serve::SessionState::kDone) {
        std::cerr << "crash_sweep: VIOLATION at cut " << cut
                  << ": re-adopted session did not finish\n";
        ++outcome.violations;
        continue;
      }
      const Fingerprint got = fingerprint_of(*result);
      if (!(got == reference)) {
        std::cerr << "crash_sweep: VIOLATION at cut " << cut
                  << ": re-adopted " << got << " != reference " << reference
                  << "\n";
        ++outcome.violations;
      }
    } catch (const Error& e) {
      std::cerr << "crash_sweep: VIOLATION at cut " << cut
                << ": recovery threw: " << e.what() << "\n";
      ++outcome.violations;
    }
  }
  return outcome;
}

// --- driver ----------------------------------------------------------------

int usage() {
  std::cerr << "usage: crash_sweep [--mode tune|serve|all] [--stride N]\n"
            << "                   [--budget S] [--stencil NAME]\n"
            << "                   [--universe N] [--seed N] [--json]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  SweepConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "crash_sweep: " << arg << " needs a value\n";
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--mode") {
      config.mode = value();
    } else if (arg == "--stride") {
      config.stride = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--budget") {
      config.budget_s = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--stencil") {
      config.stencil = value();
    } else if (arg == "--universe") {
      config.universe = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--json") {
      config.json = true;
    } else {
      return usage();
    }
  }
  if (config.stride == 0) config.stride = 1;
  if (config.mode != "tune" && config.mode != "serve" && config.mode != "all") {
    return usage();
  }

  try {
    SweepOutcome tune, served;
    if (config.mode == "tune" || config.mode == "all") {
      tune = sweep_tune(config);
    }
    if (config.mode == "serve" || config.mode == "all") {
      served = sweep_serve(config);
    }
    const std::uint64_t violations = tune.violations + served.violations;
    if (config.json) {
      JsonWriter json;
      json.begin_object()
          .field("mode", config.mode)
          .field("stride", config.stride)
          .field("tune_ops", tune.reference_ops)
          .field("tune_cuts", tune.cuts)
          .field("serve_ops", served.reference_ops)
          .field("serve_cuts", served.cuts)
          .field("violations", violations)
          .end_object();
      std::cout << json.str() << "\n";
    }
    std::cerr << "crash_sweep: " << (tune.cuts + served.cuts)
              << " cut(s) swept, " << violations << " violation(s)\n";
    return violations == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "crash_sweep: fatal: " << e.what() << "\n";
    return 2;
  }
}
