#pragma once

// Internal case-set machinery behind extraction (core/extract.cpp): the
// flat open-addressing hash set, the erroneous-case set stratified by word
// count, and the subset-dominance operations on it (dominated, compact,
// strengthen). Not part of the public surface (not in ced.hpp); the
// property test in tests/test_case_set.cpp checks it against a brute-force
// reference.
//
// Every user of a CaseSet is order-blind: extraction compacts and/or sorts
// a set before any table sees it. So only a set's contents and size() are
// observable, never its iteration order (length by length, insertion order
// within a length).

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/erroneous_case.hpp"

namespace ced::core {

/// Flat open-addressing hash set: the items live in a dense vector, and a
/// power-of-two slot table (at most half full) maps hashes to positions.
/// Iteration follows insertion order.
template <class T, class Hash>
class FlatSet {
 public:
  using value_type = T;

  std::size_t size() const { return items_.size(); }
  typename std::vector<T>::const_iterator begin() const {
    return items_.begin();
  }
  typename std::vector<T>::const_iterator end() const { return items_.end(); }

  bool contains(const T& x) const {
    return !slots_.empty() && slots_[probe(x, hash(x))] != 0;
  }

  /// Adds `x`; false when it was already present.
  bool insert(const T& x) {
    if (2 * (items_.size() + 1) > slots_.size()) {
      rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    }
    const std::uint64_t h = hash(x);
    const std::size_t i = probe(x, h);
    if (slots_[i] != 0) return false;
    items_.push_back(x);
    slots_[i] = (h & ~kIndex) | items_.size();
    return true;
  }

  /// Removes every item `pred` holds for; returns how many. `pred` must
  /// not read this set (its slots are stale until the rebuild at the end).
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    const auto kept = std::remove_if(items_.begin(), items_.end(), pred);
    const auto removed = static_cast<std::size_t>(items_.end() - kept);
    if (removed > 0) {
      items_.erase(kept, items_.end());
      rehash(slots_.size());
    }
    return removed;
  }

  /// Empties the set, keeping its capacity.
  void reset() {
    items_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
  }

  /// Empties the set and releases its memory.
  void clear() {
    items_ = {};
    slots_ = {};
  }

 private:
  /// Low 32 bits of a slot: item position + 1 (0 = empty); high 32 bits:
  /// the hash's high half, which filters most mismatches without touching
  /// the item.
  static constexpr std::uint64_t kIndex = 0xffffffffull;

  static std::uint64_t hash(const T& x) {
    std::uint64_t h = Hash{}(x);
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

  /// The slot holding `x`, or the empty slot where it would go.
  std::size_t probe(const T& x, std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint64_t slot = slots_[i];
      if (slot == 0 || ((slot >> 32) == (h >> 32) &&
                        items_[(slot & kIndex) - 1] == x)) {
        return i;
      }
    }
  }

  void rehash(std::size_t capacity) {
    slots_.assign(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (std::size_t k = 0; k < items_.size(); ++k) {
      const std::uint64_t h = hash(items_[k]);
      std::size_t i = h & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = (h & ~kIndex) | (k + 1);
    }
  }

  std::vector<T> items_;
  std::vector<std::uint64_t> slots_;
};

/// The difference words of a case with exactly K words.
template <std::size_t K>
using Words = std::array<std::uint64_t, K>;

struct WordsHash {
  template <std::size_t K>
  std::size_t operator()(const Words<K>& w) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull * (K + 1);
    for (const std::uint64_t x : w) {
      h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// A set of canonical erroneous cases (length 1..kMaxLatency), kept as one
/// flat hash set per word count. A case's proper subsets are all shorter,
/// so a dominance check never probes the stratum of the case itself — on
/// large tables the long cases far outnumber the short ones their subset
/// probes look for, and those short strata stay small and cache-resident.
class CaseSet {
  // The helpers come first: the public members deduce their return types
  // through with_stratum.
  template <std::size_t... I>
  static auto make_strata(std::index_sequence<I...>)
      -> std::tuple<FlatSet<Words<I + 1>, WordsHash>...>;
  using Strata = decltype(make_strata(
      std::make_index_sequence<static_cast<std::size_t>(kMaxLatency)>{}));

  /// Word count of a stratum type.
  template <class S>
  static constexpr std::size_t kWords =
      std::tuple_size_v<typename std::decay_t<S>::value_type>;

  template <std::size_t K>
  static Words<K> words_of(const ErroneousCase& ec) {
    Words<K> w;
    std::copy_n(ec.diff.begin(), K, w.begin());
    return w;
  }

  template <std::size_t K>
  static ErroneousCase case_of(const Words<K>& w) {
    ErroneousCase ec;
    std::copy_n(w.begin(), K, ec.diff.begin());
    ec.length = static_cast<std::uint8_t>(K);
    return ec;
  }

  template <class S, class F>
  static void for_each_in(const S& s, F& f) {
    for (const auto& w : s) f(case_of(w));
  }

  /// `f(stratum of len words)`.
  template <std::size_t I = 0, class Self, class F>
  static decltype(auto) with_stratum_of(Self& self, int len, F&& f) {
    if constexpr (I + 1 < std::tuple_size_v<Strata>) {
      if (len != static_cast<int>(I + 1)) {
        return with_stratum_of<I + 1>(self, len, f);
      }
    }
    return f(std::get<I>(self.strata_));
  }
  template <class F>
  decltype(auto) with_stratum(int len, F&& f) {
    return with_stratum_of(*this, len, f);
  }
  template <class F>
  decltype(auto) with_stratum(int len, F&& f) const {
    return with_stratum_of(*this, len, f);
  }

 public:
  /// Cases across every stratum.
  std::size_t size() const {
    return std::apply([](const auto&... s) { return (s.size() + ...); },
                      strata_);
  }
  /// Cases of exactly `len` words.
  std::size_t size(int len) const {
    return with_stratum(len, [](const auto& s) { return s.size(); });
  }

  /// `ec.length` must be 1..kMaxLatency (every canonical case's is).
  bool contains(const ErroneousCase& ec) const {
    return with_stratum(ec.length, [&](const auto& s) {
      return s.contains(words_of<kWords<decltype(s)>>(ec));
    });
  }

  /// Adds `ec`; false when it was already present.
  bool insert(const ErroneousCase& ec) {
    return with_stratum(ec.length, [&](auto& s) {
      return s.insert(words_of<kWords<decltype(s)>>(ec));
    });
  }

  template <class It>
  void insert(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  /// Calls `f(case)` for every case, shortest first.
  template <class F>
  void for_each(F&& f) const {
    std::apply([&](const auto&... s) { (for_each_in(s, f), ...); }, strata_);
  }

  /// Calls `f(case)` for every case of `len` words.
  template <class F>
  void for_each(int len, F&& f) const {
    with_stratum(len, [&](const auto& s) { for_each_in(s, f); });
  }

  /// Every case, shortest first.
  std::vector<ErroneousCase> cases() const {
    std::vector<ErroneousCase> out;
    out.reserve(size());
    for_each([&](const ErroneousCase& ec) { out.push_back(ec); });
    return out;
  }

  /// Removes the cases of `len` words that `pred(case)` holds for; returns
  /// how many. `pred` may read every other stratum.
  template <class Pred>
  std::size_t erase_if(int len, Pred pred) {
    return with_stratum(len, [&](auto& s) {
      return s.erase_if([&](const auto& w) { return pred(case_of(w)); });
    });
  }

  /// Empties the cases of `len` words and releases their memory.
  void clear(int len) {
    with_stratum(len, [](auto& s) { s.clear(); });
  }

  /// Empties the set and releases its memory.
  void clear() {
    std::apply([](auto&... s) { (s.clear(), ...); }, strata_);
  }

 private:
  Strata strata_;
};

/// True if some nonempty proper subset of ec's word set is already a
/// case: that case implies ec (odd overlap with the subset's word is odd
/// overlap with ec's), making ec a redundant row. Each subset is looked up
/// in the stratum of its own length; `probes`, when set, counts the
/// lookups.
inline bool dominated(const ErroneousCase& ec, const CaseSet& set,
                      std::uint64_t* probes = nullptr) {
  const unsigned full = (1u << ec.length) - 1;
  for (unsigned mask = 1; mask < full; ++mask) {
    ErroneousCase sub;
    int m = 0;
    for (int k = 0; k < ec.length; ++k) {
      if ((mask >> k) & 1) {
        sub.diff[static_cast<std::size_t>(m++)] =
            ec.diff[static_cast<std::size_t>(k)];
      }
    }
    sub.length = static_cast<std::uint8_t>(m);
    if (probes != nullptr) ++*probes;
    if (set.contains(sub)) return true;
  }
  return false;
}

/// Keeps only subset-minimal cases. Strata are pruned shortest first, in
/// place: a case's dominance check reads only shorter strata, and a
/// dominated case always has a subset-minimal subset, which is never
/// removed — so the order cannot change the outcome.
inline void compact(CaseSet& set) {
  for (int len = 2; len <= kMaxLatency; ++len) {
    set.erase_if(len,
                 [&](const ErroneousCase& ec) { return dominated(ec, set); });
  }
}

/// Strengthens a case to its `k` smallest difference words (sound: it
/// only removes detection alternatives).
inline ErroneousCase strengthen(const ErroneousCase& ec, int k) {
  if (ec.length <= k) return ec;
  ErroneousCase s;
  s.length = static_cast<std::uint8_t>(k);
  for (int i = 0; i < k; ++i) {
    s.diff[static_cast<std::size_t>(i)] = ec.diff[static_cast<std::size_t>(i)];
  }
  return s;
}

/// Strengthens every case of `set` to at most `k` words and compacts: the
/// cases longer than k move, cut, into the k-word stratum.
inline void strengthen(CaseSet& set, int k) {
  for (int len = k + 1; len <= kMaxLatency; ++len) {
    set.for_each(len, [&](const ErroneousCase& ec) {
      set.insert(strengthen(ec, k));  // the k-word stratum, not this one
    });
    set.clear(len);
  }
  compact(set);
}

}  // namespace ced::core
