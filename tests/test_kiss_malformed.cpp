// Negative-test corpus for the KISS2 parser: truncated files, inconsistent
// declared counts, duplicate transitions, non-binary cubes, and assorted
// garbage. Every entry must produce a clean line-numbered diagnostic —
// via exception from parse() and via Status from try_parse() — never a
// crash, hang, or silently wrong machine. The differential suite then
// holds parse() to the stream-based reference parser
// (tests/reference/kiss_stream.hpp) on this corpus, every suite machine's
// text and seeded byte mutations of both.

#include "kiss/kiss.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchdata/handwritten.hpp"
#include "benchdata/suite.hpp"
#include "reference/kiss_stream.hpp"

namespace ced::kiss {
namespace {

struct BadCase {
  const char* name;
  const char* text;
  const char* expect_in_message;  ///< substring the diagnostic must carry
};

const std::vector<BadCase>& corpus() {
  static const std::vector<BadCase> cases = {
      {"empty-file", "", ".i/.o"},
      {"header-only", ".i 1\n.o 1\n", "no transitions"},
      {"truncated-transition", ".i 2\n.o 1\n01 s0\n", "4 fields"},
      {"transition-before-header", "0 s0 s1 1\n.i 1\n.o 1\n",
       ".i/.o must precede"},
      {"missing-i", ".o 1\n0 s0 s0 1\n", ".i/.o must precede"},
      {"bad-i-count", ".i zero\n.o 1\n0 s0 s0 1\n", "bad .i"},
      {"negative-i", ".i -2\n.o 1\n0 s0 s0 1\n", "bad .i"},
      {"bad-o-count", ".i 1\n.o x\n0 s0 s0 1\n", "bad .o"},
      {"bad-p-count", ".i 1\n.o 1\n.p many\n0 s0 s0 1\n", "bad .p"},
      {"p-mismatch", ".i 1\n.o 1\n.p 3\n0 s0 s0 1\n1 s0 s0 0\n",
       ".p does not match"},
      {"s-mismatch", ".i 1\n.o 1\n.s 5\n0 s0 s1 1\n1 s1 s0 0\n",
       ".s does not match"},
      {"bad-r-state", ".i 1\n.o 1\n.r ghost\n0 s0 s0 1\n",
       "reset state never appears"},
      {"unknown-directive", ".i 1\n.o 1\n.clock 5\n0 s0 s0 1\n",
       "unknown directive"},
      {"non-binary-input-cube", ".i 2\n.o 1\n0x s0 s0 1\n", "bad input cube"},
      {"wrong-input-width", ".i 3\n.o 1\n01 s0 s0 1\n", "bad input cube"},
      {"non-binary-output", ".i 1\n.o 2\n0 s0 s0 2-\n", "bad output"},
      {"wrong-output-width", ".i 1\n.o 2\n0 s0 s0 111\n", "bad output"},
      {"duplicate-transition", ".i 1\n.o 1\n0 s0 s1 1\n0 s0 s0 0\n",
       "duplicate transition"},
      {"duplicate-dash-cube", ".i 2\n.o 1\n-- s0 s0 1\n-- s0 s1 0\n",
       "duplicate transition"},
      {"content-after-end", ".i 1\n.o 1\n0 s0 s0 1\n.e\n1 s0 s0 0\n",
       "after .e"},
  };
  return cases;
}

TEST(KissMalformed, ParseThrowsWithDiagnostic) {
  for (const BadCase& c : corpus()) {
    try {
      (void)parse(c.text);
      FAIL() << c.name << ": expected a parse error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_message),
                std::string::npos)
          << c.name << ": diagnostic was '" << e.what() << "'";
    }
  }
}

TEST(KissMalformed, TryParseReturnsInvalidInputStatus) {
  for (const BadCase& c : corpus()) {
    const Result<Kiss2> r = try_parse(c.text);
    ASSERT_FALSE(r) << c.name;
    EXPECT_EQ(r.status().code, StatusCode::kInvalidInput) << c.name;
    EXPECT_EQ(r.status().stage, Stage::kParse) << c.name;
    EXPECT_NE(r.status().message.find(c.expect_in_message), std::string::npos)
        << c.name << ": diagnostic was '" << r.status().message << "'";
  }
}

TEST(KissMalformed, LineNumberPointsAtOffendingRow) {
  const Result<Kiss2> r =
      try_parse(".i 1\n.o 1\n0 s0 s1 1\n1 s1 s0 0\nbad s1 s0 0\n");
  ASSERT_FALSE(r);
  EXPECT_NE(r.status().message.find("line 5"), std::string::npos)
      << r.status().message;
}

TEST(KissMalformed, TryParseAcceptsWellFormedInput) {
  const Result<Kiss2> r = try_parse(
      ".i 1\n.o 1\n.p 2\n.s 2\n.r s0\n0 s0 s1 1\n1 s1 s0 0\n.e\n");
  ASSERT_TRUE(r);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r->transitions.size(), 2u);
  EXPECT_EQ(r->reset_state, "s0");
}

TEST(KissMalformed, DistinctCubesSameStateAreNotDuplicates) {
  // Overlapping-but-different cubes are the writer's business; only exact
  // (state, cube) repeats are rejected.
  const Result<Kiss2> r =
      try_parse(".i 2\n.o 1\n0- s0 s1 1\n-0 s0 s0 0\n");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->transitions.size(), 2u);
}

// ------------------------------------------------------------ differential

/// A parse outcome: the machine, or the diagnostic it was rejected with.
struct Outcome {
  bool ok = false;
  Kiss2 k;
  std::string error;
};

template <typename Parser>
Outcome outcome_of(Parser&& parser, std::string_view text) {
  Outcome o;
  try {
    o.k = parser(text);
    o.ok = true;
  } catch (const std::runtime_error& e) {
    o.error = e.what();
  }
  return o;
}

bool same_kiss(const Kiss2& a, const Kiss2& b) {
  if (a.num_inputs != b.num_inputs || a.num_outputs != b.num_outputs ||
      a.declared_terms != b.declared_terms ||
      a.declared_states != b.declared_states ||
      a.reset_state != b.reset_state ||
      a.transitions.size() != b.transitions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.transitions.size(); ++i) {
    const Transition& x = a.transitions[i];
    const Transition& y = b.transitions[i];
    if (x.input != y.input || x.current != y.current || x.next != y.next ||
        x.output != y.output) {
      return false;
    }
  }
  return true;
}

::testing::AssertionResult parsers_agree(std::string_view text) {
  const Outcome got = outcome_of([](std::string_view t) { return parse(t); },
                                 text);
  const Outcome want = outcome_of(
      [](std::string_view t) { return reference::kiss_parse_stream(t); },
      text);
  if (got.ok != want.ok) {
    return ::testing::AssertionFailure()
           << (got.ok ? "parse accepted, reference rejected: " + want.error
                      : "parse rejected (" + got.error +
                            "), reference accepted");
  }
  if (!got.ok && got.error != want.error) {
    return ::testing::AssertionFailure()
           << "diagnostic '" << got.error << "' vs reference '" << want.error
           << "'";
  }
  if (got.ok && !same_kiss(got.k, want.k)) {
    return ::testing::AssertionFailure() << "machines differ";
  }
  return ::testing::AssertionSuccess();
}

/// Texts the differential tests start from: the malformed corpus, a few
/// hand-picked edge cases of the integer and whitespace rules, every
/// handwritten fixture and every suite machine.
std::vector<std::string> base_texts() {
  std::vector<std::string> out;
  for (const BadCase& c : corpus()) out.emplace_back(c.text);
  for (const char* t : {
           ".i +1\n.o 1\n0 s0 s0 1\n",
           ".i 1junk\n.o 01\n0 s0 s0 1 extra fields\n",
           ".i 2147483648\n.o 1\n0 s0 s0 1\n",
           ".i 1\n.o 1\n.p -2147483648\n0 s0 s0 1\n",
           ".i 1\n.o 1\n.p -2147483649\n0 s0 s0 1\n",
           ".i 1\n.o 1\n.s 99999999999999999999\n0 s0 s0 1\n",
           ".i 000000000000000000001\n.o -0\n0 s0 s0 \n",
           ".i - 1\n.o 1\n0 s0 s0 1\n",
           ".i\t1\r\n.o\v1\f\r\n0\ts0 s1\t1 # comment\r\n1 s1 s0 0\r\n",
           "# only a comment\n\n   \n.i 1 # c\n.o 1\n.r s1\n0 s0 s1 1\n"
           "1 s1 s0 0\n.end\n\n# trailing\n",
           ".i 1\n.o 1\n0 s0 s0 1\n.e\n.e\n",
           ".i 1\n.o 0\n0 s0 s0 -\n",
           ".i 1\n.o 1\n0 s\x01 s0 1\n1 s\x01 s0 0\n",
           ".i 1\n.o 1\n.r\n0 s0 s0 1\n",
           ".i 1\n.o 1\n0 s0 s0 1",
       }) {
    out.emplace_back(t);
  }
  for (const auto& fx : benchdata::handwritten_fsms()) out.push_back(fx.kiss);
  for (const auto& e : benchdata::mcnc_suite()) {
    out.push_back(benchdata::generate_kiss(e.spec));
  }
  return out;
}

/// One seeded edit of `text`: overwrite, insert or delete a byte (drawn
/// mostly from the characters the grammar cares about), duplicate or drop
/// a line, or truncate.
std::string mutate(std::string text, std::mt19937_64& rng) {
  static const std::string alphabet = "01-.#+ \t\r\n\v\f\x01iopsre9x";
  const auto pick_char = [&]() -> char {
    if (rng() % 8 == 0) return static_cast<char>(rng() % 256);
    return alphabet[rng() % alphabet.size()];
  };
  const std::size_t n = text.size();
  const std::size_t at = n == 0 ? 0 : rng() % n;
  switch (rng() % 6) {
    case 0:
      if (n > 0) text[at] = pick_char();
      break;
    case 1:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), pick_char());
      break;
    case 2:
      if (n > 0) text.erase(at, 1);
      break;
    case 3: {
      // Duplicate the line containing `at`.
      const std::size_t b = text.rfind('\n', at == 0 ? 0 : at - 1);
      const std::size_t lo = b == std::string::npos || at == 0 ? 0 : b + 1;
      const std::size_t e = text.find('\n', at);
      const std::size_t hi = e == std::string::npos ? n : e + 1;
      text.insert(lo, text.substr(lo, hi - lo));
      break;
    }
    case 4: {
      const std::size_t e = text.find('\n', at);
      text.erase(at, e == std::string::npos ? std::string::npos : e - at + 1);
      break;
    }
    default:
      text.resize(at);
      break;
  }
  return text;
}

TEST(KissParseDifferential, CorpusAndSuiteMatchReference) {
  for (const std::string& text : base_texts()) {
    EXPECT_TRUE(parsers_agree(text)) << "text:\n" << text;
  }
}

TEST(KissParseDifferential, SeededMutationsMatchReference) {
  std::mt19937_64 rng(0x6b697373);
  const std::vector<std::string> bases = base_texts();
  int accepted = 0, rejected = 0;
  for (const std::string& base : bases) {
    for (int trial = 0; trial < 60; ++trial) {
      std::string text = base;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < edits; ++e) text = mutate(std::move(text), rng);
      const ::testing::AssertionResult agree = parsers_agree(text);
      ASSERT_TRUE(agree) << "trial " << trial << ", text:\n" << text;
      try {
        (void)parse(text);
        ++accepted;
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  }
  // The mutations must reach both outcomes, not only the error paths.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace ced::kiss
