// Seeded property test: the stratified case set and its dominance
// operations (src/core/case_set.hpp) against the brute-force reference in
// tests/reference/case_set_reference.hpp, over random word sets of every
// length 1..kMaxLatency drawn from small alphabets (so subsets, repeats
// and dominated cases are common).

#include "core/case_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "reference/case_set_reference.hpp"

namespace ced::core {
namespace {

using reference::RefCase;
using reference::RefCaseSet;

/// A random canonical case: 1..kMaxLatency distinct words from 1..alphabet,
/// sorted.
RefCase random_case(std::mt19937_64& rng, std::uint64_t alphabet) {
  std::uniform_int_distribution<int> len(1, kMaxLatency);
  std::uniform_int_distribution<std::uint64_t> word(1, alphabet);
  std::set<std::uint64_t> words;
  const int n = len(rng);
  while (static_cast<int>(words.size()) < n) words.insert(word(rng));
  return RefCase(words.begin(), words.end());
}

ErroneousCase to_case(const RefCase& c) {
  ErroneousCase ec;
  for (std::size_t k = 0; k < c.size(); ++k) ec.diff[k] = c[k];
  ec.length = static_cast<std::uint8_t>(c.size());
  return ec;
}

std::set<RefCase> contents(const CaseSet& set) {
  std::set<RefCase> out;
  set.for_each([&](const ErroneousCase& ec) {
    out.insert(RefCase(ec.diff.begin(), ec.diff.begin() + ec.length));
  });
  return out;
}

void expect_same(const CaseSet& set, const RefCaseSet& ref,
                 const std::string& what) {
  EXPECT_EQ(set.size(), ref.size()) << what;
  std::size_t by_length = 0;
  for (int len = 1; len <= kMaxLatency; ++len) by_length += set.size(len);
  EXPECT_EQ(by_length, set.size()) << what;
  EXPECT_EQ(set.cases().size(), set.size()) << what;
  EXPECT_TRUE(contents(set) == ref.cases()) << what;
}

TEST(CaseSet, MatchesBruteForceReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    std::mt19937_64 rng(seed);
    // Small alphabets make dominance frequent; a larger one keeps most
    // cases independent.
    const std::uint64_t alphabet = seed % 2 == 0 ? 8 : 40;
    CaseSet set;
    RefCaseSet ref;
    const std::string what = "seed " + std::to_string(seed);
    for (int step = 0; step < 600; ++step) {
      const RefCase c = random_case(rng, alphabet);
      const ErroneousCase ec = to_case(c);
      ASSERT_EQ(set.contains(ec), ref.contains(c)) << what;
      ASSERT_EQ(dominated(ec, set), ref.dominated(c)) << what;
      ASSERT_EQ(set.insert(ec), ref.insert(c)) << what;
      ASSERT_TRUE(set.contains(ec)) << what;
      if (step % 150 == 149) {
        compact(set);
        ref.compact();
        expect_same(set, ref, what + " compact at " + std::to_string(step));
      }
    }
    expect_same(set, ref, what);

    // Dominance probes count one lookup per subset tried.
    const RefCase probe = random_case(rng, alphabet);
    std::uint64_t probes = 0;
    const bool dom = dominated(to_case(probe), set, &probes);
    EXPECT_EQ(dom, ref.dominated(probe)) << what;
    EXPECT_LE(probes, (1u << probe.size()) - 2) << what;
    if (!dom) {
      EXPECT_EQ(probes, (1u << probe.size()) - 2) << what;
    }

    for (int k = kMaxLatency - 1; k >= 1; --k) {
      CaseSet cut = set;
      RefCaseSet ref_cut = ref;
      strengthen(cut, k);
      ref_cut.strengthen(static_cast<std::size_t>(k));
      expect_same(cut, ref_cut, what + " strengthen to " + std::to_string(k));
      for (int len = k + 1; len <= kMaxLatency; ++len) {
        EXPECT_EQ(cut.size(len), 0u) << what;
      }
    }

    set.clear();
    EXPECT_EQ(set.size(), 0u) << what;
    EXPECT_FALSE(set.contains(to_case(probe))) << what;
  }
}

TEST(CaseSet, StrengthenCutsToSmallestWords) {
  for (int k = 1; k <= kMaxLatency; ++k) {
    const ErroneousCase ec = to_case({3, 5, 9, 12});
    const ErroneousCase s = strengthen(ec, k);
    ASSERT_EQ(s.length, std::min(k, 4));
    for (int i = 0; i < s.length; ++i) {
      EXPECT_EQ(s.diff[static_cast<std::size_t>(i)],
                ec.diff[static_cast<std::size_t>(i)]);
    }
  }
}

}  // namespace
}  // namespace ced::core
