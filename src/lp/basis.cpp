#include "lp/basis.hpp"

namespace ced::lp {

void EtaBasis::reset(int m) {
  m_ = m;
  nonzeros_ = 0;
  etas_.clear();
}

void EtaBasis::push(const std::vector<double>& w, int row) {
  Eta e;
  e.row = row;
  e.pivot = w[static_cast<std::size_t>(row)];
  for (int i = 0; i < m_; ++i) {
    if (i == row) continue;
    const double v = w[static_cast<std::size_t>(i)];
    if (v != 0.0) {
      e.idx.push_back(i);
      e.val.push_back(v);
    }
  }
  nonzeros_ += e.idx.size() + 1;
  etas_.push_back(std::move(e));
}

void EtaBasis::push_unit(int row, double pivot) {
  Eta e;
  e.row = row;
  e.pivot = pivot;
  nonzeros_ += 1;
  etas_.push_back(std::move(e));
}

void EtaBasis::ftran(std::vector<double>& x) const {
  for (const Eta& e : etas_) {
    double& xr = x[static_cast<std::size_t>(e.row)];
    if (xr == 0.0) continue;  // eta leaves x untouched
    xr /= e.pivot;
    for (std::size_t k = 0; k < e.idx.size(); ++k) {
      x[static_cast<std::size_t>(e.idx[k])] -= e.val[k] * xr;
    }
  }
}

void EtaBasis::btran(std::vector<double>& y) const {
  for (std::size_t t = etas_.size(); t-- > 0;) {
    const Eta& e = etas_[t];
    double s = y[static_cast<std::size_t>(e.row)];
    for (std::size_t k = 0; k < e.idx.size(); ++k) {
      s -= e.val[k] * y[static_cast<std::size_t>(e.idx[k])];
    }
    y[static_cast<std::size_t>(e.row)] = s / e.pivot;
  }
}

}  // namespace ced::lp
