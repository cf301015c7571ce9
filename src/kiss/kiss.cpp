#include "kiss/kiss.hpp"

#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace ced::kiss {
namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::runtime_error("kiss2 parse error (line " + std::to_string(line) +
                           "): " + msg);
}

bool is_pattern(std::string_view s, bool allow_dash) {
  for (char c : s) {
    if (c == '0' || c == '1') continue;
    if (allow_dash && c == '-') continue;
    return false;
  }
  return !s.empty();
}

/// The whitespace set of the classic "C" locale, which is what stream
/// extraction skips.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Whitespace-separated tokens of one line, read left to right.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  /// The next token, or false when only whitespace is left.
  bool next(std::string_view& tok) {
    skip_space();
    std::size_t n = 0;
    while (n < rest_.size() && !is_space(rest_[n])) ++n;
    if (n == 0) return false;
    tok = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return true;
  }

  /// Reads a decimal int the way `stream >> int` does: leading whitespace
  /// skipped, an optional sign, then digits up to the first non-digit
  /// (trailing garbage is left unread). False when there are no digits or
  /// the value does not fit an int.
  bool next_int(int& out) {
    skip_space();
    std::size_t i = 0;
    bool negative = false;
    if (i < rest_.size() && (rest_[i] == '+' || rest_[i] == '-')) {
      negative = rest_[i] == '-';
      ++i;
    }
    const std::size_t digits_at = i;
    const std::int64_t limit =
        negative ? -static_cast<std::int64_t>(
                       std::numeric_limits<int>::min())
                 : std::numeric_limits<int>::max();
    std::int64_t v = 0;
    bool overflow = false;
    for (; i < rest_.size() && rest_[i] >= '0' && rest_[i] <= '9'; ++i) {
      if (!overflow) {
        v = v * 10 + (rest_[i] - '0');
        overflow = v > limit;
      }
    }
    if (i == digits_at || overflow) return false;
    rest_.remove_prefix(i);
    out = static_cast<int>(negative ? -v : v);
    return true;
  }

 private:
  void skip_space() {
    std::size_t n = 0;
    while (n < rest_.size() && is_space(rest_[n])) ++n;
    rest_.remove_prefix(n);
  }

  std::string_view rest_;
};

/// Hash of a (present state, input cube) pair.
struct RowKeyHash {
  std::size_t operator()(
      const std::pair<std::string_view, std::string_view>& k) const {
    const std::size_t h = std::hash<std::string_view>{}(k.first);
    const std::size_t g = std::hash<std::string_view>{}(k.second);
    return h ^ (g + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }
};

}  // namespace

Kiss2 parse(std::string_view text) {
  Kiss2 k;
  int line_no = 0;
  bool saw_i = false;
  bool saw_o = false;
  bool ended = false;
  // Views into `text`, which outlives the parse.
  std::unordered_set<std::pair<std::string_view, std::string_view>,
                     RowKeyHash>
      seen_rows;
  std::unordered_set<std::string_view> states;

  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() : nl + 1;
    ++line_no;
    // Strip comments ('#' to end of line); tokens skip the whitespace.
    if (auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    Tokens ls(line);
    std::string_view tok;
    if (!ls.next(tok)) continue;  // blank line
    if (ended) fail(line_no, "content after .e");

    if (tok == ".i") {
      if (!ls.next_int(k.num_inputs) || k.num_inputs <= 0) {
        fail(line_no, "bad .i");
      }
      saw_i = true;
    } else if (tok == ".o") {
      if (!ls.next_int(k.num_outputs) || k.num_outputs < 0) {
        fail(line_no, "bad .o");
      }
      saw_o = true;
    } else if (tok == ".p") {
      int p = 0;
      if (!ls.next_int(p)) fail(line_no, "bad .p");
      k.declared_terms = p;
    } else if (tok == ".s") {
      int s = 0;
      if (!ls.next_int(s)) fail(line_no, "bad .s");
      k.declared_states = s;
    } else if (tok == ".r") {
      std::string_view r;
      if (!ls.next(r)) fail(line_no, "bad .r");
      k.reset_state = r;
    } else if (tok == ".e" || tok == ".end") {
      ended = true;
    } else if (tok[0] == '.') {
      fail(line_no, "unknown directive '" + std::string(tok) + "'");
    } else {
      const std::string_view input = tok;
      std::string_view current, next, output;
      if (!ls.next(current) || !ls.next(next) || !ls.next(output)) {
        fail(line_no, "transition needs 4 fields");
      }
      if (!saw_i || !saw_o) fail(line_no, ".i/.o must precede transitions");
      if (!is_pattern(input, true) ||
          static_cast<int>(input.size()) != k.num_inputs) {
        fail(line_no, "bad input cube '" + std::string(input) + "'");
      }
      if (!is_pattern(output, true) ||
          static_cast<int>(output.size()) != k.num_outputs) {
        fail(line_no, "bad output pattern '" + std::string(output) + "'");
      }
      // A deterministic machine cannot fire two rows from the same state on
      // the same input cube; an exact duplicate is always a file error.
      if (!seen_rows.emplace(current, input).second) {
        fail(line_no, "duplicate transition for state '" +
                          std::string(current) + "' on input '" +
                          std::string(input) + "'");
      }
      states.insert(current);
      states.insert(next);
      k.transitions.push_back(Transition{std::string(input),
                                         std::string(current),
                                         std::string(next),
                                         std::string(output)});
    }
  }

  if (!saw_i || !saw_o) throw std::runtime_error("kiss2: missing .i/.o");
  if (k.transitions.empty()) throw std::runtime_error("kiss2: no transitions");

  if (k.reset_state.empty()) {
    k.reset_state = k.transitions.front().current;
  } else if (!states.count(k.reset_state)) {
    throw std::runtime_error("kiss2: reset state never appears");
  }
  if (k.declared_terms &&
      *k.declared_terms != static_cast<int>(k.transitions.size())) {
    throw std::runtime_error("kiss2: .p does not match transition count");
  }
  if (k.declared_states &&
      *k.declared_states != static_cast<int>(states.size())) {
    throw std::runtime_error("kiss2: .s does not match state count");
  }
  return k;
}

Result<Kiss2> try_parse(std::string_view text) {
  try {
    return parse(text);
  } catch (const std::exception& e) {
    return Status::invalid_input(Stage::kParse, e.what());
  }
}

std::string write(const Kiss2& k) {
  std::unordered_set<std::string> states;
  for (const auto& t : k.transitions) {
    states.insert(t.current);
    states.insert(t.next);
  }
  std::ostringstream out;
  out << ".i " << k.num_inputs << '\n';
  out << ".o " << k.num_outputs << '\n';
  out << ".p " << k.transitions.size() << '\n';
  out << ".s " << states.size() << '\n';
  if (!k.reset_state.empty()) out << ".r " << k.reset_state << '\n';
  for (const auto& t : k.transitions) {
    out << t.input << ' ' << t.current << ' ' << t.next << ' ' << t.output
        << '\n';
  }
  out << ".e\n";
  return out.str();
}

}  // namespace ced::kiss
