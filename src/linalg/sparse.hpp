// Sparse vector building blocks shared by the LP layer and the sparse LU.
//
// The MINLP allocations the HSLB models produce are structurally sparse:
// each selector binary appears in its task's SOS row, one linking row, and
// the budget row, so the constraint matrix holds O(3) nonzeros per column
// regardless of how many node counts a layout offers. Everything here is
// sized for that shape: (index, value) entries for sparse columns and rows
// (lp::Model's column view, the simplex's scaled CSC/CSR copy, the LU
// factors), a scatter accumulator, and a sparse axpy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace hslb::linalg {

/// One (index, value) entry of a sparse vector or of a matrix column/row.
struct SparseEntry {
  std::size_t index;
  double value;
};

/// Dense-value / explicit-pattern accumulator for scatter kernels: values
/// live in a dense array for O(1) random access while the list of touched
/// indices makes iteration and reset proportional to the nonzero count.
class Scatter {
 public:
  explicit Scatter(std::size_t n) : value_(n, 0.0), touched_(n, 0) {}

  std::size_t size() const { return value_.size(); }

  /// Clears, then resizes to n; capacity is kept, so a reused accumulator
  /// allocates only when it grows past every earlier size.
  void resize(std::size_t n) {
    clear();
    value_.resize(n, 0.0);
    touched_.resize(n, 0);
  }

  /// value[i] += v, recording i in the pattern on first touch.
  void add(std::size_t i, double v) {
    HSLB_EXPECTS(i < value_.size());
    if (!touched_[i]) {
      touched_[i] = 1;
      pattern_.push_back(i);
    }
    value_[i] += v;
  }

  double operator[](std::size_t i) const {
    HSLB_EXPECTS(i < value_.size());
    return value_[i];
  }

  /// Indices touched since the last clear(), in first-touch order.
  std::span<const std::size_t> pattern() const { return pattern_; }

  /// Resets touched values/pattern in O(pattern size), not O(n).
  void clear() {
    for (std::size_t i : pattern_) {
      value_[i] = 0.0;
      touched_[i] = 0;
    }
    pattern_.clear();
  }

 private:
  std::vector<double> value_;
  // Byte-wide occupancy: the simplex dual-repair row builder hammers add()
  // hard enough that std::vector<bool>'s bit masking shows up in profiles.
  std::vector<std::uint8_t> touched_;
  std::vector<std::size_t> pattern_;
};

/// y += s * x for a sparse x scattered into a dense y. Requires x's indices
/// ascending (lp::Model's column view and the simplex's copy keep them so),
/// which lets the bounds contract collapse to one check on the last entry
/// instead of a throwing branch inside the hot loop.
inline void axpy_scatter(double s, std::span<const SparseEntry> x,
                         std::span<double> y) {
  if (x.empty()) return;
  HSLB_EXPECTS(x.back().index < y.size());
  double* const yd = y.data();
  for (const auto& [i, v] : x) yd[i] += s * v;
}

}  // namespace hslb::linalg
