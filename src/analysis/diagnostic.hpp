#pragma once
// Structured diagnostics for the static analyzer (ISSUE 2): every finding
// carries a severity, a stable rule identifier (e.g. "race.rw-no-sync"), a
// location string and a human-readable message, so tooling can filter by
// rule and the CLI can emit machine-readable JSON.

#include <cstddef>
#include <string>
#include <vector>

namespace cstuner {
class JsonWriter;
}

namespace cstuner::analysis {

enum class Severity { kNote, kWarning, kError };

const char* severity_name(Severity severity);

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string rule;      ///< stable identifier, "<pass>.<check>"
  std::string location;  ///< "kernel:line N", "space:<param>", ...
  std::string message;
  /// How the finding was established: "proven" (backed by a symbolic
  /// certificate, see docs/static-analysis.md), "heuristic" (a sampled
  /// estimate, such as the space's valid fraction), or empty when the distinction does
  /// not apply. Rendered as a suffix in text and as a field in JSON.
  std::string verdict;

  std::string to_string() const;
};

/// An ordered collection of diagnostics from one or more passes.
class Report {
 public:
  void add(Severity severity, std::string rule, std::string location,
           std::string message, std::string verdict = "");
  void note(std::string rule, std::string location, std::string message,
            std::string verdict = "") {
    add(Severity::kNote, std::move(rule), std::move(location),
        std::move(message), std::move(verdict));
  }
  void warn(std::string rule, std::string location, std::string message,
            std::string verdict = "") {
    add(Severity::kWarning, std::move(rule), std::move(location),
        std::move(message), std::move(verdict));
  }
  void error(std::string rule, std::string location, std::string message,
             std::string verdict = "") {
    add(Severity::kError, std::move(rule), std::move(location),
        std::move(message), std::move(verdict));
  }

  /// Appends all diagnostics of `other`.
  void merge(const Report& other);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }
  std::size_t size() const { return diagnostics_.size(); }
  std::size_t count(Severity severity) const;
  std::size_t error_count() const { return count(Severity::kError); }
  /// No error-severity findings (notes/warnings allowed).
  bool clean() const { return error_count() == 0; }

  bool has_rule(const std::string& rule) const;
  /// Diagnostics matching a rule prefix, e.g. "bounds." for the whole pass.
  std::vector<Diagnostic> matching(const std::string& rule_prefix) const;

  std::string to_string() const;
  /// Writes this report as a JSON array onto an in-progress writer.
  void write_json(JsonWriter& json) const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace cstuner::analysis
