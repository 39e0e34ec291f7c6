#pragma once
// Per-parameter abstract domains for the symbolic constraint-propagation
// engine (propagate.hpp, docs/search-space.md). A ValueDomain is the set of
// still-possible values of one parameter inside one case-split region,
// represented as a bitmask over the parameter's sorted value list. The
// engine prunes it value by value (remove) and reads it through its
// endpoints, its values in ascending order and ceil_value.
//
// Removing a value never makes an invalid setting valid (every rule's
// left-hand side is monotone within a region), so domains only ever shrink:
// propagation is a descending fixpoint over a finite lattice and must
// terminate.

#include <cstdint>
#include <string>

#include "space/parameter.hpp"

namespace cstuner::analysis {

class ValueDomain {
 public:
  ValueDomain() = default;
  /// Bit i of `mask` admits param.values[i]. Requires cardinality <= 64
  /// (the engine bails out on wider parameters).
  ValueDomain(const space::Parameter& param, std::uint64_t mask);

  std::uint64_t mask() const { return mask_; }
  bool empty() const { return mask_ == 0; }
  std::size_t count() const;

  /// Removes one value; true when it was present.
  bool remove(std::int64_t value);

  /// Smallest (resp. largest) remaining value. Undefined on an empty domain
  /// (checked).
  std::int64_t min() const;
  std::int64_t max() const;

  /// Every remaining value a power of two.
  bool all_pow2() const;

  /// Smallest remaining value >= v, or -1 when none exists.
  std::int64_t ceil_value(std::int64_t v) const;

  /// "{1, 2, 4}" for small sets, "[1..64] pow2 x12" for larger ones.
  std::string to_string() const;

  /// Invokes fn(value) over remaining values in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (param_ == nullptr) return;
    for (std::size_t i = 0; i < param_->values.size(); ++i) {
      if (((mask_ >> i) & 1U) != 0) fn(param_->values[i]);
    }
  }

 private:
  const space::Parameter* param_ = nullptr;
  std::uint64_t mask_ = 0;
};

}  // namespace cstuner::analysis
