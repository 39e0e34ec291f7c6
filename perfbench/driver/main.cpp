// perfbench_driver <serve|replay|zoo|selftest> [--seed N] [--seconds S]
//                  [--trace 0|1] [--state-dir DIR] [--cells s/a,s/a,...]
//
// Prints one JSON line (RunReport) for run.py; the self-test prints one
// line per check and exits nonzero when any fails.

#include <bit>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "perfbench.hpp"

namespace perfbench {

const std::vector<std::string>& zoo_optimizers() {
  static const std::vector<std::string> names = {
      "anneal",       "artemis",      "de",  "garvey", "hill",     "island-ga",
      "opentuner-de", "opentuner-ga", "pso", "random", "surrogate"};
  return names;
}

std::vector<std::size_t> cycle_order(std::size_t n, std::uint64_t seed,
                                     std::size_t cycle) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  cstuner::Rng rng(cstuner::hash_combine(seed, cycle));
  rng.shuffle(order);
  return order;
}

std::string digest(double best_ms, std::uint64_t evaluations,
                   double virtual_time_s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx:%llu:%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(best_ms)),
                static_cast<unsigned long long>(evaluations),
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(virtual_time_s)));
  return buf;
}

std::string digest(const cstuner::tuner::Evaluator& evaluator) {
  return digest(evaluator.best_time_ms(), evaluator.unique_evaluations(),
                evaluator.virtual_time_s());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw cstuner::Error("no VmHWM in /proc/self/status");
}

void RunReport::print() const {
  cstuner::JsonWriter json;
  json.begin_object();
  json.key("setup_s").begin_array();
  for (double s : setup_s) json.value(s);
  json.end_array();
  json.field("timed_wall_s", timed_wall_s);
  json.field("peak_rss_mb", peak_rss_mb());
  json.key("requests").begin_array();
  for (const Request& r : requests) {
    json.begin_object()
        .field("cell", r.cell)
        .field("wall_s", r.wall_s)
        .field("ok", r.ok)
        .field("cancelled", r.cancelled)
        .field("error", r.error)
        .field("best_ms", r.best_ms)
        .field("digest", r.digest)
        .end_object();
  }
  json.end_array();
  json.key("layers").begin_array();
  for (const Layer& l : layers) {
    json.begin_object()
        .field("name", l.name)
        .field("value", l.value)
        .field("unit", l.unit)
        .field("samples", l.samples)
        .end_object();
  }
  json.end_array();
  json.key("errors").begin_array();
  for (const std::string& e : errors) json.value(e);
  json.end_array();
  json.end_object();
  std::cout << json.str() << std::endl;
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench_driver <zoo|serve|replay|selftest> "
               "[--seed N] [--seconds S] [--trace 0|1] [--state-dir DIR] "
               "[--cells stencil/arch,...]\n";
  return 2;
}

std::vector<perfbench::Cell> parse_cells(const std::string& list) {
  std::vector<perfbench::Cell> cells;
  std::size_t start = 0;
  while (start < list.size()) {
    std::size_t end = list.find(',', start);
    if (end == std::string::npos) end = list.size();
    const std::string item = list.substr(start, end - start);
    const std::size_t slash = item.find('/');
    if (slash == std::string::npos) {
      throw cstuner::UsageError("bad cell (want stencil/arch): " + item);
    }
    cells.push_back({item.substr(0, slash), item.substr(slash + 1)});
    start = end + 1;
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  perfbench::Options options;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value != "0";
      } else if (flag == "--state-dir") {
        options.state_dir = value;
      } else if (flag == "--cells") {
        options.cells = parse_cells(value);
      } else {
        return usage();
      }
    }
    if (mode == "zoo") {
      perfbench::run_zoo(options).print();
    } else if (mode == "serve") {
      perfbench::run_serve(options).print();
    } else if (mode == "replay") {
      perfbench::run_replay(options).print();
    } else if (mode == "selftest") {
      return perfbench::run_selftest(options) == 0 ? 0 : 1;
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
