// cstuner — command-line driver for the auto-tuning framework.
//
// Subcommands:
//   list-stencils                       the Table III suite
//   inspect   <stencil>                 parameter space + constraints summary
//   profile   <stencil> [--set k=v ...] simulate one setting (time + metrics)
//   codegen   <stencil> [--set k=v ...] emit the CUDA kernel for a setting
//   dataset   <stencil> [-n N]          collect a performance dataset (CSV)
//   validate  <stencil> [--scale S]     tiled executor vs reference oracle
//   analyze   <stencil> [--set k=v ...] static analysis of generated kernels
//   tune      <stencil> [--method M] [--budget S] [--json]   run a tuner
//   tournament [stencil ...] [--budget S] [--json]  optimizer leaderboard
//   report    <current.json> --baseline <file> [--tol 10%]   bench gate
//   serve     [--port N] [--state-dir D]       tuning-as-a-service daemon
//   client    --request '<json>' [--port N]    one request to a daemon
//
// Common flags: --arch a100|v100 (default a100), --seed N. Flags accept
// both "--key value" and "--key=value".

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/propagate.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "core/grouping.hpp"
#include "cstuner.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "space/lazy_universe.hpp"

using namespace cstuner;

namespace {

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;  // "--key value" or "--key"

  bool has(const std::string& k) const { return flags.count(k) > 0; }
  std::string get(const std::string& k, const std::string& fallback) const {
    const auto it = flags.find(k);
    return it == flags.end() ? fallback : it->second;
  }
  double get_double(const std::string& k, double fallback) const {
    const auto it = flags.find(k);
    return it == flags.end() ? fallback : std::stod(it->second);
  }
  std::uint64_t get_u64(const std::string& k, std::uint64_t fallback) const {
    const auto it = flags.find(k);
    return it == flags.end() ? fallback : std::stoull(it->second);
  }
  std::vector<std::string> get_all(const std::string& k) const {
    std::vector<std::string> out;
    for (auto [lo, hi] = multi.equal_range(k); lo != hi; ++lo) {
      out.push_back(lo->second);
    }
    return out;
  }
  std::multimap<std::string, std::string> multi;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      std::string name = token.substr(2);
      std::string value;
      // "--key=value" binds inline; otherwise the next non-flag token (if
      // any) is the value.
      if (const auto eq = name.find('='); eq != std::string::npos) {
        value = name.substr(eq + 1);
        name.resize(eq);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        value = argv[++i];
      }
      args.flags[name] = value;
      args.multi.emplace(name, value);
    } else if (token.rfind("-n", 0) == 0 && token.size() == 2) {
      if (i + 1 < argc) args.flags["n"] = argv[++i];
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

/// Resolves the stencil: a built-in name (positional) or --spec <file>
/// pointing at a stencil-DSL document.
stencil::StencilSpec resolve_spec(const Args& args) {
  if (args.has("spec")) {
    return stencil::load_stencil_file(args.get("spec", ""));
  }
  return stencil::make_stencil(args.positional.at(0));
}

/// Applies "--set name=value" overrides onto a setting.
space::Setting parse_setting(const space::SearchSpace& space,
                             const Args& args) {
  space::Setting s;
  s.set(space::kTBx, 32);  // sensible default mapping
  for (const auto& assignment : args.get_all("set")) {
    const auto eq = assignment.find('=');
    if (eq == std::string::npos) {
      throw UsageError("--set expects name=value, got: " + assignment);
    }
    const std::string name = assignment.substr(0, eq);
    const auto value = std::stoll(assignment.substr(eq + 1));
    bool found = false;
    for (std::size_t i = 0; i < space::kParamCount; ++i) {
      const auto id = static_cast<space::ParamId>(i);
      if (name == space::param_name(id)) {
        s.set(id, value);
        found = true;
        break;
      }
    }
    if (!found) throw UsageError("unknown parameter: " + name);
  }
  return space.checker().canonicalized(s);
}

int cmd_list_stencils() {
  TextTable table({"stencil", "grid", "order", "flops", "io_arrays"});
  for (const auto& spec : stencil::all_stencils()) {
    table.add_row({spec.name, std::to_string(spec.grid[0]) + "^3",
                   std::to_string(spec.order), std::to_string(spec.flops),
                   std::to_string(spec.io_arrays)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_inspect(const Args& args) {
  const auto spec = resolve_spec(args);
  space::SearchSpace space(spec);
  std::cout << "stencil " << spec.name << ": grid " << spec.grid[0] << "x"
            << spec.grid[1] << "x" << spec.grid[2] << ", order " << spec.order
            << ", " << spec.flops << " FLOPs/point, " << spec.io_arrays
            << " arrays (" << spec.n_inputs << " in / " << spec.n_outputs
            << " out), " << spec.taps.size() << " taps\n";
  std::cout << "unconstrained space: 10^"
            << static_cast<int>(space.log10_cartesian_size())
            << " settings\n\n";
  TextTable table({"parameter", "kind", "values"});
  for (const auto& p : space.parameters()) {
    std::string values;
    for (std::size_t i = 0; i < p.values.size(); ++i) {
      if (i) values += ',';
      if (i >= 6) {
        values += "...," + std::to_string(p.values.back());
        break;
      }
      values += std::to_string(p.values[i]);
    }
    const char* kind = p.kind == space::ParamKind::kBool   ? "bool"
                       : p.kind == space::ParamKind::kEnum ? "enum"
                                                           : "pow2";
    table.add_row({p.name, kind, values});
  }
  table.print(std::cout);
  return 0;
}

int cmd_profile(const Args& args) {
  const auto spec = resolve_spec(args);
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::arch_by_name(args.get("arch", "a100")));
  const auto setting = parse_setting(space, args);
  if (const auto why = space.checker().violation(setting)) {
    std::cerr << "invalid setting: " << *why << '\n';
    return 1;
  }
  const auto profile = sim.profile(spec, setting);
  std::cout << "setting: " << setting.to_string() << '\n';
  std::cout << "time: " << profile.time_ms << " ms  (occupancy "
            << profile.occupancy.occupancy << ", limiter "
            << gpusim::limiter_name(profile.occupancy.limiter)
            << ", registers " << profile.resources.registers_per_thread
            << ", smem " << profile.resources.shared_mem_per_block
            << " B)\n\nmetrics:\n";
  TextTable table({"metric", "value"});
  for (std::size_t m = 0; m < gpusim::kMetricCount; ++m) {
    table.add_row({gpusim::metric_name(static_cast<gpusim::MetricId>(m)),
                   TextTable::fmt(profile.metrics[m], 4)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_codegen(const Args& args) {
  const auto spec = resolve_spec(args);
  space::SearchSpace space(spec);
  const auto setting = parse_setting(space, args);
  const auto kernel = codegen::generate_kernel(spec, setting);
  std::cout << kernel.source << "\n// launch: " << kernel.launch << '\n';
  return 0;
}

int cmd_dataset(const Args& args) {
  const auto spec = resolve_spec(args);
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::arch_by_name(args.get("arch", "a100")));
  Rng rng(args.get_u64("seed", 1));
  const auto n = static_cast<std::size_t>(args.get_u64("n", 128));
  const auto dataset = tuner::collect_dataset(space, sim, n, rng);
  // CSV: parameters, time, metrics.
  for (std::size_t p = 0; p < space::kParamCount; ++p) {
    std::cout << space::param_name(static_cast<space::ParamId>(p)) << ',';
  }
  std::cout << "time_ms";
  for (const auto& metric : gpusim::metric_names()) std::cout << ',' << metric;
  std::cout << '\n';
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    for (std::size_t p = 0; p < space::kParamCount; ++p) {
      std::cout << dataset.settings[i].get(static_cast<space::ParamId>(p))
                << ',';
    }
    std::cout << dataset.times_ms[i];
    for (std::size_t m = 0; m < gpusim::kMetricCount; ++m) {
      std::cout << ',' << dataset.metrics(i, m);
    }
    std::cout << '\n';
  }
  return 0;
}

int cmd_validate(const Args& args) {
  const auto name = args.positional.at(0);
  const int scale = static_cast<int>(args.get_u64("scale", 20));
  auto spec = stencil::scaled_stencil(name, scale);
  space::SearchSpace space(spec);
  Rng rng(args.get_u64("seed", 1));
  const int trials = static_cast<int>(args.get_u64("trials", 5));
  for (int i = 0; i < trials; ++i) {
    const auto setting = space.random_valid(rng);
    const double divergence =
        exec::max_divergence_from_reference(spec, setting);
    std::cout << (divergence == 0.0 ? "OK   " : "FAIL ")
              << setting.to_string() << '\n';
    if (divergence != 0.0) return 1;
  }
  std::cout << trials << " random decompositions match the reference.\n";
  return 0;
}

/// `analyze --space`: whole-space static analysis via the symbolic
/// constraint-propagation engine — exact valid-setting counts, proven dead
/// values/pairs with unsat certificates, per-rule pruning attribution, and
/// (with --enumerate N) a checker-verified walk of the first N settings of
/// the lazily enumerated universe. `--all` sweeps the built-in suite; the
/// JSON document is stable enough to gate in CI at 0% tolerance.
int cmd_analyze_space(const Args& args) {
  std::vector<stencil::StencilSpec> specs;
  if (args.has("all")) {
    specs = stencil::all_stencils();
  } else {
    specs.push_back(resolve_spec(args));
  }
  const auto enumerate_limit = args.get_u64("enumerate", 0);

  std::size_t errors = 0;
  std::size_t warnings = 0;
  JsonWriter json;
  const bool json_out = args.has("json");
  if (json_out) {
    json.begin_object();
    json.key("spaces").begin_array();
  }
  for (const auto& spec : specs) {
    space::SearchSpace space(spec);
    const auto prop = analysis::propagate(space);

    analysis::SpaceLintOptions lint_options;
    lint_options.seed = args.get_u64("seed", 1);
    const auto lint = analysis::lint_space(space, prop, lint_options);
    errors += lint.report.error_count();
    warnings += lint.report.count(analysis::Severity::kWarning);

    // Optional cross-check: enumerate the head of the valid universe in the
    // deterministic LazyUniverse order and re-verify every setting against
    // the full constraint checker.
    std::uint64_t enumerated = 0;
    std::uint64_t enumerate_mismatch = 0;
    if (enumerate_limit > 0) {
      space::LazyUniverse lazy(space);
      const auto settings =
          lazy.take_all(static_cast<std::size_t>(enumerate_limit));
      enumerated = settings.size();
      for (const auto& s : settings) {
        if (!space.is_valid(s)) ++enumerate_mismatch;
      }
      if (enumerate_mismatch > 0) ++errors;
    }

    std::size_t empty_regions = 0;
    for (const auto& summary : prop.region_summaries) {
      if (summary.empty) ++empty_regions;
    }

    if (json_out) {
      json.begin_object();
      json.field("stencil", spec.name);
      json.field("log10_raw", space.log10_cartesian_size());
      json.field("valid_count", prop.valid_count);
      json.field("regions", prop.regions.size());
      json.field("empty_regions", empty_regions);
      json.field("dead_values", prop.dead_values.size());
      json.field("dead_pairs", prop.dead_pairs.size());
      json.key("rule_prunes").begin_object();
      for (const auto& [rule, count] : prop.rule_prunes) {
        json.field(rule, count);
      }
      json.end_object();
      if (enumerate_limit > 0) {
        json.field("enumerated", enumerated);
        json.field("enumerate_mismatch", enumerate_mismatch);
      }
      json.key("space_lint");
      lint.report.write_json(json);
      json.end_object();
    } else {
      std::cout << "== " << spec.name << " ==\n";
      std::cout << "valid settings: " << prop.valid_count << " (exact) of 10^"
                << static_cast<int>(space.log10_cartesian_size())
                << " raw combinations\n";
      std::cout << "regions: " << prop.regions.size() << " ("
                << empty_regions << " proven empty)\n";
      if (!prop.dead_values.empty()) {
        std::cout << "proven-dead values:\n";
        for (const auto& dead : prop.dead_values) {
          std::cout << "  " << space::param_name(dead.param) << "="
                    << dead.value << "  [rule " << dead.rule << "] "
                    << dead.certificate << '\n';
        }
      }
      if (!prop.dead_pairs.empty()) {
        std::cout << "proven-dead pairs:\n";
        for (const auto& dead : prop.dead_pairs) {
          std::cout << "  (" << space::param_name(dead.a) << "="
                    << dead.value_a << ", " << space::param_name(dead.b)
                    << "=" << dead.value_b << ") " << dead.certificate
                    << '\n';
        }
      }
      if (!prop.rule_prunes.empty()) {
        TextTable table({"rule", "domain values pruned"});
        for (const auto& [rule, count] : prop.rule_prunes) {
          table.add_row({rule, std::to_string(count)});
        }
        table.print(std::cout);
      }
      if (enumerate_limit > 0) {
        std::cout << "enumerated " << enumerated
                  << " setting(s) in deterministic order; "
                  << enumerate_mismatch << " failed re-verification\n";
      }
      std::cout << "-- space lint\n" << lint.report.to_string();
    }
  }
  if (json_out) {
    json.end_array();
    json.field("errors", errors);
    json.field("warnings", warnings);
    json.end_object();
    std::cout << json.str() << '\n';
  } else {
    std::cout << specs.size() << " space(s) analyzed: " << errors
              << " error(s), " << warnings << " warning(s)\n";
  }
  return errors == 0 ? 0 : 1;
}

int cmd_analyze(const Args& args) {
  if (args.has("space")) return cmd_analyze_space(args);
  const auto spec = resolve_spec(args);
  space::SearchSpace space(spec);
  const auto arch = gpusim::arch_by_name(args.get("arch", "a100"));
  analysis::AnalyzerOptions options;
  options.arch = &arch;

  // Settings under analysis: an explicit --set assignment, or a seeded
  // sample of valid settings covering the space.
  std::vector<space::Setting> settings;
  if (!args.get_all("set").empty()) {
    settings.push_back(parse_setting(space, args));
  } else {
    Rng rng(args.get_u64("seed", 1));
    const auto n = static_cast<std::size_t>(args.get_u64("samples", 16));
    for (std::size_t i = 0; i < n; ++i) {
      settings.push_back(space.random_valid(rng));
    }
  }

  std::vector<analysis::Report> reports;
  reports.reserve(settings.size());
  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const auto& setting : settings) {
    analysis::Report report;
    if (const auto why = space.checker().violation(setting)) {
      report.error("constraint.violation", "setting", *why);
    } else {
      report = analysis::analyze_setting(spec, setting, options);
    }
    errors += report.error_count();
    warnings += report.count(analysis::Severity::kWarning);
    reports.push_back(std::move(report));
  }

  analysis::SpaceLintResult lint;
  const bool run_lint = !args.has("no-lint");
  if (run_lint) {
    analysis::SpaceLintOptions lint_options;
    lint_options.seed = args.get_u64("seed", 1);
    lint = analysis::lint_space(space, analysis::propagate(space),
                                lint_options);
    errors += lint.report.error_count();
    warnings += lint.report.count(analysis::Severity::kWarning);
  }

  if (args.has("json")) {
    JsonWriter json;
    json.begin_object();
    json.field("stencil", spec.name);
    json.field("arch", arch.name);
    json.key("settings").begin_array();
    for (std::size_t i = 0; i < settings.size(); ++i) {
      json.begin_object();
      json.field("setting", settings[i].to_string());
      json.field("clean", reports[i].clean());
      json.key("diagnostics");
      reports[i].write_json(json);
      json.end_object();
    }
    json.end_array();
    if (run_lint) {
      json.field("dead_values", lint.dead_values);
      json.field("dead_pairs", lint.dead_pairs);
      json.field("valid_fraction", lint.sampled_valid_fraction);
      json.key("space_lint");
      lint.report.write_json(json);
    }
    json.field("errors", errors);
    json.field("warnings", warnings);
    json.end_object();
    std::cout << json.str() << '\n';
  } else {
    for (std::size_t i = 0; i < settings.size(); ++i) {
      std::cout << "-- " << settings[i].to_string() << '\n';
      if (reports[i].empty()) {
        std::cout << "   clean (race, bounds, resource)\n";
      } else {
        std::cout << reports[i].to_string();
      }
    }
    if (run_lint) {
      std::cout << "-- space lint\n" << lint.report.to_string();
    }
    std::cout << settings.size() << " setting(s) analyzed: " << errors
              << " error(s), " << warnings << " warning(s)\n";
  }
  return errors == 0 ? 0 : 1;
}

int cmd_tune(const Args& args) {
  // Observability: --trace-out enables the global span tracer and writes a
  // Chrome trace_event file; --metrics folds the metrics registry into the
  // --json document (or prints it after the text summary).
  const bool want_trace = args.has("trace-out");
  const bool want_metrics = args.has("metrics");
  if ((want_trace || want_metrics) && !obs::kCompiledIn) {
    std::cerr << "warning: built with CSTUNER_OBS=OFF; trace/metrics "
                 "output will be empty\n";
  }
  if (want_trace) obs::Tracer::global().set_enabled(true);
  const auto spec = resolve_spec(args);
  space::SearchSpace space(spec);
  gpusim::Simulator sim(gpusim::arch_by_name(args.get("arch", "a100")));
  const auto seed = args.get_u64("seed", 7);
  tuner::Evaluator evaluator(sim, space, {}, seed);
  // Debug mode: statically analyze every kernel before its first
  // measurement; aborts the run on analyzer errors.
  evaluator.set_debug_precheck(args.has("precheck"));

  // Fault injection: --fault-rate, or the CSTUNER_FAULT_RATE environment
  // knob (the CI fault-storm gate) when the flag is absent.
  const double fault_rate = args.has("fault-rate")
                                ? args.get_double("fault-rate", 0.0)
                                : gpusim::FaultConfig::rate_from_env();
  if (fault_rate > 0.0) {
    evaluator.set_fault_injection(gpusim::FaultConfig::uniform(fault_rate, seed),
                                  spec.name);
  }
  tuner::RetryPolicy policy;
  policy.max_attempts =
      static_cast<int>(args.get_u64("max-attempts",
                                    static_cast<std::uint64_t>(policy.max_attempts)));
  policy.fault_budget_s = args.get_double("fault-budget", policy.fault_budget_s);
  evaluator.set_retry_policy(policy);

  // Rank-kill chaos: each --kill-rank=R@G schedules island R of the
  // distributed GA to die at generation G (deterministic, replayable).
  std::vector<tuner::RankKill> kill_plan;
  for (const auto& spec_str : args.get_all("kill-rank")) {
    const auto at = spec_str.find('@');
    if (at == std::string::npos || at == 0 || at + 1 == spec_str.size()) {
      std::cerr << "error: --kill-rank expects RANK@GENERATION, got: "
                << spec_str << '\n';
      return 1;
    }
    tuner::RankKill kill;
    kill.rank = std::stoi(spec_str.substr(0, at));
    kill.generation = std::stoull(spec_str.substr(at + 1));
    kill_plan.push_back(kill);
  }

  // Crash-safe checkpointing: journal + periodic snapshots in --checkpoint
  // <dir>; --resume replays the journal so the continuation is
  // bit-identical to a run that was never interrupted.
  std::optional<tuner::Checkpoint> checkpoint;
  if (args.has("checkpoint")) {
    checkpoint.emplace(args.get("checkpoint", "checkpoint"));
    // --checkpoint-sync=every fsyncs each journaled evaluation; batch (the
    // default) buffers until the per-iteration flush.
    const std::string sync = args.get("checkpoint-sync", "batch");
    if (sync == "every") {
      checkpoint->set_sync_policy(tuner::Checkpoint::SyncPolicy::kEvery);
    } else if (sync != "batch") {
      std::cerr << "error: --checkpoint-sync expects every|batch, got: "
                << sync << '\n';
      return 1;
    }
    if (args.has("resume")) {
      if (!checkpoint->has_journal_file()) {
        // Starting a fresh run here would silently discard the user's
        // intent to continue an old one — refuse instead.
        std::cerr << "error: --resume: no journal at "
                  << checkpoint->journal_file()
                  << " (use --checkpoint without --resume to start fresh)\n";
        return 1;
      }
      const auto recovered = checkpoint->load();
      std::cerr << "resuming from " << checkpoint->directory() << ": "
                << recovered << " journaled evaluation(s), "
                << checkpoint->island_events().size()
                << " island event(s)\n";
      // Journaled island deaths fold back into the kill plan so a
      // degraded run resumes bit-identically without re-passing flags.
      for (const tuner::RankKill& kill :
           tuner::kill_plan_from_events(checkpoint->island_events())) {
        kill_plan.push_back(kill);
      }
    }
    evaluator.set_checkpoint(&*checkpoint);
  }
  if (!kill_plan.empty()) {
    evaluator.set_kill_plan(std::move(kill_plan), spec.name);
  }

  // One dispatch for --method and --optimizer (docs/optimizers.md):
  // "csTuner" or any registered optimizer, or "auto" to let the MetaTuner
  // pick from stencil features. Unknown names throw UsageError listing every
  // accepted name; main() routes that to stderr with exit code 1.
  std::string method = args.get("optimizer", args.get("method", "csTuner"));
  if (method == "auto") {
    method = search::MetaTuner().pick(spec);
    std::cerr << "optimizer: auto -> " << method << '\n';
  }
  core::CsTunerOptions options;
  options.universe_size =
      static_cast<std::size_t>(args.get_u64("universe", 8000));
  options.seed = seed;
  options.ga.sub_populations = static_cast<int>(args.get_u64(
      "islands", static_cast<std::uint64_t>(options.ga.sub_populations)));
  options.ga.min_islands = static_cast<int>(args.get_u64(
      "min-islands", static_cast<std::uint64_t>(options.ga.min_islands)));
  const std::unique_ptr<tuner::Tuner> tuner =
      search::make_tuner(method, options);
  const auto* cs_tuner = dynamic_cast<const core::CsTuner*>(tuner.get());

  tuner::StopCriteria stop;
  stop.max_virtual_seconds = args.get_double("budget", 60.0);
  tuner->tune(evaluator, stop);

  if (checkpoint.has_value()) {
    // Final durability point: everything committed is journaled and the
    // closing snapshot reflects the finished run.
    checkpoint->flush();
    checkpoint->write_snapshot(evaluator.serialize_state());
  }

  if (want_trace) {
    const std::string path = args.get("trace-out", "trace.json");
    JsonWriter trace_json;
    obs::Tracer::global().write_chrome_json(trace_json);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot write trace " + path);
    out << trace_json.str() << '\n';
    out.flush();
    if (!out) throw Error("trace write failed: " + path);
    std::cerr << "trace written to " << path
              << " (load it at chrome://tracing or ui.perfetto.dev)\n";
    obs::Tracer::global().write_summary(std::cerr);
  }

  const tuner::FaultStats stats = evaluator.fault_stats();
  if (args.has("json")) {
    JsonWriter json;
    json.begin_object();
    json.field("stencil", spec.name);
    json.field("arch", sim.arch().name);
    json.field("method", tuner->name());
    json.field("best_time_ms", evaluator.best_time_ms());
    if (const auto& best = evaluator.best_setting(); best.has_value()) {
      json.field("best_setting", best->to_string());
    } else {
      json.raw_field("best_setting", "null");  // nothing was measured
    }
    json.field("evaluations", evaluator.unique_evaluations());
    json.field("iterations", evaluator.iterations());
    json.field("virtual_time_s", evaluator.virtual_time_s());
    if (cs_tuner != nullptr && cs_tuner->report().universe_exact_count > 0) {
      json.field("universe_exact_count",
                 cs_tuner->report().universe_exact_count);
    }
    json.field("fault_rate", fault_rate);
    json.key("fault_stats");
    stats.write_json(json);
    json.key("trace");
    evaluator.trace().write_json(json);
    if (want_metrics) {
      json.key("metrics");
      obs::metrics().write_json(json);
    }
    if (want_trace) {
      json.key("virtual_span_totals");
      obs::Tracer::global().write_virtual_totals_json(json);
    }
    json.end_object();
    std::cout << json.str() << '\n';
  } else {
    const auto& best = evaluator.best_setting();
    std::cout << "method:        " << tuner->name() << '\n'
              << "best time:     " << evaluator.best_time_ms() << " ms\n"
              << "best setting:  "
              << (best.has_value() ? best->to_string() : "none") << '\n'
              << "evaluations:   " << evaluator.unique_evaluations() << '\n'
              << "virtual time:  " << evaluator.virtual_time_s() << " s\n";
    if (cs_tuner != nullptr && cs_tuner->report().universe_exact_count > 0) {
      std::cout << "exact space:   "
                << cs_tuner->report().universe_exact_count
                << " valid setting(s)\n";
    }
    if (stats.any() || fault_rate > 0.0) {
      std::cout << "failures:      " << stats.to_string() << '\n';
    }
    if (want_metrics) {
      JsonWriter metrics_json;
      obs::metrics().write_json(metrics_json);
      std::cout << "metrics:       " << metrics_json.str() << '\n';
    }
  }
  return 0;
}

int cmd_tournament(const Args& args) {
  // Iso-budget optimizer tournament: every optimizer races every stencil
  // under the same virtual budget and seed; positional args narrow the
  // stencils (none, or --all, races the whole suite) and repeatable
  // --optimizer flags narrow the roster.
  search::TournamentOptions options;
  if (!args.has("all")) {
    for (const auto& name : args.positional) options.stencils.push_back(name);
  }
  options.arch = args.get("arch", options.arch);
  options.budget_s = args.get_double("budget", options.budget_s);
  options.seed = args.get_u64("seed", options.seed);
  for (const auto& name : args.get_all("optimizer")) {
    options.optimizers.push_back(name);
  }

  const search::TournamentResult result = search::run_tournament(options);
  const std::string json = search::tournament_json(result);
  if (args.has("out")) {
    const std::string path = args.get("out", "tournament.json");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot write leaderboard " + path);
    out << json << '\n';
    out.flush();
    if (!out) throw Error("leaderboard write failed: " + path);
    std::cerr << "leaderboard written to " << path << '\n';
  }
  if (args.has("json")) {
    std::cout << json << '\n';
  } else {
    search::print_tournament(result, std::cout);
  }
  return 0;
}

int cmd_report(const Args& args) {
  if (args.positional.empty() || !args.has("baseline")) {
    std::cerr << "usage: cstuner report <current.json> --baseline <file>\n"
                 "       [--tol 10%] [--ignore substr ...] [--allow-missing]\n"
                 "       [--json]\n";
    return 2;
  }
  obs::CompareOptions options;
  options.tolerance = obs::parse_tolerance(args.get("tol", "10%"));
  for (const auto& extra : args.get_all("ignore")) {
    if (!extra.empty()) options.ignore.push_back(extra);
  }
  options.fail_on_missing = !args.has("allow-missing");
  const obs::CompareReport report = obs::compare_report_files(
      args.get("baseline", ""), args.positional.at(0), options);
  if (args.has("json")) {
    JsonWriter json;
    report.write_json(json);
    std::cout << json.str() << '\n';
  } else {
    std::cout << report.to_string();
  }
  return report.ok() ? 0 : 1;
}

int cmd_serve(const Args& args) {
  serve::ServeOptions options;
  options.state_dir = args.get("state-dir", "serve-state");
  options.admission.max_running = static_cast<std::size_t>(
      args.get_u64("max-running", options.admission.max_running));
  options.admission.max_queued = static_cast<std::size_t>(
      args.get_u64("max-queued", options.admission.max_queued));
  options.admission.tenant_quota = static_cast<std::size_t>(
      args.get_u64("tenant-quota", options.admission.tenant_quota));
  options.drain_grace_s = args.get_double("drain-grace", options.drain_grace_s);
  options.warm_start = !args.has("no-warm-start");
  const std::string sync = args.get("checkpoint-sync", "batch");
  if (sync == "every") {
    options.checkpoint_sync = tuner::Checkpoint::SyncPolicy::kEvery;
  } else if (sync != "batch") {
    std::cerr << "error: --checkpoint-sync expects every|batch, got: " << sync
              << '\n';
    return 1;
  }

  serve::ServerOptions server_options;
  server_options.host = args.get("host", "127.0.0.1");
  server_options.port = static_cast<int>(args.get_u64("port", 0));
  server_options.port_file = args.get("port-file", "");

  // SIGTERM/SIGINT route to the graceful drain; install before the manager
  // starts resuming adopted sessions so an early signal still drains.
  serve::Server::install_signal_handlers();
  serve::SessionManager manager(options);
  serve::Server server(manager, server_options);
  server.run();
  return 0;
}

int cmd_client(const Args& args) {
  const std::string request = args.get("request", "");
  if (request.empty()) {
    std::cerr << "usage: cstuner client --request '<json>' [--port N]\n"
                 "       [--port-file file] [--host H] [--timeout seconds]\n";
    return 2;
  }
  int port = static_cast<int>(args.get_u64("port", 0));
  if (port == 0 && args.has("port-file")) {
    std::ifstream in(args.get("port-file", ""));
    in >> port;
  }
  if (port == 0) {
    std::cerr << "error: client needs --port or --port-file\n";
    return 2;
  }
  const std::string host = args.get("host", "127.0.0.1");
  const int timeout_ms =
      static_cast<int>(args.get_double("timeout", 120.0) * 1000.0);

  const int fd = serve::connect_to(host, port, timeout_ms);
  serve::send_all(fd, request + "\n");
  const bool streaming =
      json_parse(request).at("op").as_string() == "stream";
  serve::LineReader reader(fd);
  std::string line;
  std::string last_type;
  for (;;) {
    const auto status = reader.read_line(line, timeout_ms);
    if (status != serve::LineReader::Status::kLine) {
      ::close(fd);
      std::cerr << "error: no response from daemon\n";
      return 1;
    }
    std::cout << line << '\n';
    last_type = json_parse(line).at("type").as_string();
    // A stream keeps emitting "status" lines until the terminal response.
    if (!streaming || last_type != "status") break;
  }
  ::close(fd);
  return (last_type == "error" || last_type == "bad_request") ? 1 : 0;
}

int usage() {
  std::cerr
      << "usage: cstuner <command> [args]\n"
         "  list-stencils\n"
         "  inspect  <stencil> | --spec <file.stencil>\n"
         "  profile  <stencil> [--arch a100|v100] [--set name=value ...]\n"
         "  codegen  <stencil> [--set name=value ...]\n"
         "  dataset  <stencil> [-n N] [--arch ...] [--seed N]\n"
         "  validate <stencil> [--scale S] [--trials N]\n"
         "  analyze  <stencil> [--arch ...] [--set name=value ...]\n"
         "           [--samples N] [--seed N] [--no-lint] [--json]\n"
         "           [--space [--all] [--enumerate N]]   whole-space proofs\n"
         "  tune     <stencil> [--method|--optimizer <name>|auto]\n"
         "           csTuner (default), opentuner, or any optimizer (see\n"
         "           `tournament` for names; auto = MetaTuner selection)\n"
         "           [--budget seconds] [--arch ...] [--seed N] [--json]\n"
         "           [--precheck] [--fault-rate R] [--max-attempts N]\n"
         "           [--fault-budget seconds] [--checkpoint dir] [--resume]\n"
         "           [--islands N] [--min-islands N] [--kill-rank R@G ...]\n"
         "           [--trace-out file.json] [--metrics]\n"
         "  tournament [stencil ...] [--all] [--budget seconds]\n"
         "           [--arch ...] [--seed N] [--optimizer name ...]\n"
         "           [--json] [--out file.json]   iso-budget leaderboard\n"
         "  report   <current.json> --baseline <file> [--tol 10%]\n"
         "           [--ignore substr ...] [--allow-missing] [--json]\n"
         "  serve    [--host H] [--port N] [--port-file file]\n"
         "           [--state-dir dir] [--max-running N] [--max-queued N]\n"
         "           [--tenant-quota N] [--checkpoint-sync every|batch]\n"
         "           [--drain-grace seconds] [--no-warm-start]\n"
         "  client   --request '<json>' [--port N | --port-file file]\n"
         "           [--host H] [--timeout seconds]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.command == "list-stencils") return cmd_list_stencils();
    if (args.command == "report") return cmd_report(args);
    if (args.command == "tournament") return cmd_tournament(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "client") return cmd_client(args);
    // "analyze --all --space" sweeps every built-in stencil, so it is the
    // one stencil-scoped command that needs no positional.
    if (args.positional.empty() && !args.has("spec") &&
        !(args.command == "analyze" && args.has("all"))) {
      return usage();
    }
    if (args.command == "inspect") return cmd_inspect(args);
    if (args.command == "profile") return cmd_profile(args);
    if (args.command == "codegen") return cmd_codegen(args);
    if (args.command == "dataset") return cmd_dataset(args);
    if (args.command == "validate") return cmd_validate(args);
    if (args.command == "analyze") return cmd_analyze(args);
    if (args.command == "tune") return cmd_tune(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
