#pragma once

// Test-side reference for the stratified case set (src/core/case_set.hpp):
// a std::set of word vectors, with dominance as a linear scan for a
// proper subset. Written from the definitions alone — a case is dominated
// iff some recorded case's words are a nonempty proper subset of its own,
// compaction keeps the undominated cases, and strengthening cuts every
// case to its k smallest words — with no use of the production helpers.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

namespace ced::reference {

/// A case as its sorted, distinct, nonzero difference words.
using RefCase = std::vector<std::uint64_t>;

class RefCaseSet {
 public:
  bool insert(const RefCase& c) { return cases_.insert(c).second; }
  bool contains(const RefCase& c) const { return cases_.count(c) != 0; }
  std::size_t size() const { return cases_.size(); }
  const std::set<RefCase>& cases() const { return cases_; }

  bool dominated(const RefCase& c) const {
    for (const RefCase& x : cases_) {
      if (x.size() < c.size() &&
          std::includes(c.begin(), c.end(), x.begin(), x.end())) {
        return true;
      }
    }
    return false;
  }

  void compact() {
    std::set<RefCase> kept;
    for (const RefCase& x : cases_) {
      if (!dominated(x)) kept.insert(x);
    }
    cases_ = std::move(kept);
  }

  void strengthen(std::size_t k) {
    std::set<RefCase> cut;
    for (const RefCase& x : cases_) {
      cut.insert(RefCase(x.begin(),
                         x.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(k, x.size()))));
    }
    cases_ = std::move(cut);
    compact();
  }

 private:
  std::set<RefCase> cases_;
};

}  // namespace ced::reference
