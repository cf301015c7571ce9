#pragma once

// Product-form-of-inverse basis representation for the revised simplex.
//
// The basis inverse is never formed explicitly: it is the composition of
// sparse eta matrices, one per Gauss-Jordan pivot. Refactorization (driven
// by revised.cpp) rebuilds the file from the current basis columns —
// mostly unit logicals in the cover LPs, each appended as an O(1) unit
// eta, so the refactorized file stays near the nonzero count of the
// basis itself — and the per-iteration FTRAN/BTRAN cost is the nonzero
// count of the file, not O(m^2).
//
// Everything here is deterministic: etas are applied in a fixed order and
// no tolerance-dependent entry dropping happens after construction.

#include <cstdint>
#include <vector>

namespace ced::lp {

/// Eta file E_t ... E_1 representing B^{-1} (in permuted row order).
/// ftran computes B^{-1} x in place; btran computes B^{-T} y in place.
class EtaBasis {
 public:
  /// Clears the file for a basis of `m` rows.
  void reset(int m);

  int rows() const { return m_; }
  std::size_t etas() const { return etas_.size(); }
  std::size_t nonzeros() const { return nonzeros_; }

  /// Appends the eta of a pivot at `row` on the pivot column `w`
  /// (dense, length m, already FTRANed through the existing file).
  /// w[row] must be nonzero — callers check against their pivot tolerance.
  void push(const std::vector<double>& w, int row);

  /// Appends the eta of a column that is `pivot` * e_row after FTRAN
  /// (a basic logical factorized before any structural: no earlier eta
  /// touches its row). O(1) — the same eta push() would record for that
  /// column, without the dense scan.
  void push_unit(int row, double pivot);

  /// x := B^{-1} x. Zero pivot-row values short-circuit their eta.
  void ftran(std::vector<double>& x) const;

  /// y := B^{-T} y (etas applied in reverse).
  void btran(std::vector<double>& y) const;

 private:
  struct Eta {
    std::int32_t row = 0;  ///< pivot row
    double pivot = 1.0;    ///< w[row]
    /// Off-pivot nonzeros of w.
    std::vector<std::int32_t> idx;
    std::vector<double> val;
  };

  int m_ = 0;
  std::size_t nonzeros_ = 0;
  std::vector<Eta> etas_;
};

}  // namespace ced::lp
