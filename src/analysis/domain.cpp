#include "analysis/domain.hpp"

#include <bit>
#include <sstream>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace cstuner::analysis {

ValueDomain::ValueDomain(const space::Parameter& param, std::uint64_t mask)
    : param_(&param), mask_(mask) {
  const std::size_t n = param.values.size();
  CSTUNER_CHECK_MSG(n <= 64, "domain mask holds at most 64 values");
  if (n < 64) mask_ &= (std::uint64_t{1} << n) - 1;
}

std::size_t ValueDomain::count() const {
  return static_cast<std::size_t>(std::popcount(mask_));
}

bool ValueDomain::remove(std::int64_t value) {
  if (param_ == nullptr) return false;
  for (std::size_t i = 0; i < param_->values.size(); ++i) {
    if (param_->values[i] == value) {
      const std::uint64_t bit = std::uint64_t{1} << i;
      if ((mask_ & bit) == 0) return false;
      mask_ &= ~bit;
      return true;
    }
  }
  return false;
}

std::int64_t ValueDomain::min() const {
  CSTUNER_CHECK_MSG(!empty(), "min() of an empty domain");
  const auto i = static_cast<std::size_t>(std::countr_zero(mask_));
  return param_->values[i];
}

std::int64_t ValueDomain::max() const {
  CSTUNER_CHECK_MSG(!empty(), "max() of an empty domain");
  const auto i = static_cast<std::size_t>(63 - std::countl_zero(mask_));
  return param_->values[i];
}

bool ValueDomain::all_pow2() const {
  bool ok = true;
  for_each([&ok](std::int64_t v) { ok = ok && is_pow2(v); });
  return ok;
}

std::int64_t ValueDomain::ceil_value(std::int64_t v) const {
  std::int64_t best = -1;
  for_each([&](std::int64_t candidate) {
    if (candidate >= v && best < 0) best = candidate;
  });
  return best;
}

std::string ValueDomain::to_string() const {
  if (empty()) return "{}";
  std::ostringstream os;
  if (count() <= 8) {
    os << '{';
    bool first = true;
    for_each([&](std::int64_t v) {
      if (!first) os << ", ";
      first = false;
      os << v;
    });
    os << '}';
    return os.str();
  }
  os << '[' << min() << ".." << max() << ']';
  if (all_pow2()) os << " pow2";
  os << " x" << count();
  return os.str();
}

}  // namespace cstuner::analysis
