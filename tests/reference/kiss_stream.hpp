#pragma once

// Test-side KISS2 reference: the line-by-line std::istringstream parser
// that kiss::parse (src/kiss/kiss.cpp, string_view tokenizer) must agree
// with — the same Kiss2 for every accepted text and the same diagnostic,
// word for word, for every rejected one. Integers follow `stream >> int`
// semantics: leading '+', trailing garbage ignored, overflow rejected.

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>

#include "kiss/kiss.hpp"

namespace ced::reference {

namespace kiss_stream_detail {

[[noreturn]] inline void fail(int line, const std::string& msg) {
  throw std::runtime_error("kiss2 parse error (line " + std::to_string(line) +
                           "): " + msg);
}

inline bool is_pattern(const std::string& s, bool allow_dash) {
  for (char c : s) {
    if (c == '0' || c == '1') continue;
    if (allow_dash && c == '-') continue;
    return false;
  }
  return !s.empty();
}

}  // namespace kiss_stream_detail

/// Parses KISS2 text; throws std::runtime_error with the same
/// line-numbered messages as kiss::parse.
inline kiss::Kiss2 kiss_parse_stream(std::string_view text) {
  using kiss_stream_detail::fail;
  using kiss_stream_detail::is_pattern;
  kiss::Kiss2 k;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  bool saw_i = false;
  bool saw_o = false;
  bool ended = false;
  std::unordered_set<std::string> seen_rows;

  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments ('#' to end of line) and surrounding whitespace.
    if (auto pos = line.find('#'); pos != std::string::npos) {
      line.erase(pos);
    }
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;  // blank line
    if (ended) fail(line_no, "content after .e");

    if (tok == ".i") {
      if (!(ls >> k.num_inputs) || k.num_inputs <= 0) {
        fail(line_no, "bad .i");
      }
      saw_i = true;
    } else if (tok == ".o") {
      if (!(ls >> k.num_outputs) || k.num_outputs < 0) {
        fail(line_no, "bad .o");
      }
      saw_o = true;
    } else if (tok == ".p") {
      int p = 0;
      if (!(ls >> p)) fail(line_no, "bad .p");
      k.declared_terms = p;
    } else if (tok == ".s") {
      int s = 0;
      if (!(ls >> s)) fail(line_no, "bad .s");
      k.declared_states = s;
    } else if (tok == ".r") {
      if (!(ls >> k.reset_state)) fail(line_no, "bad .r");
    } else if (tok == ".e" || tok == ".end") {
      ended = true;
    } else if (tok[0] == '.') {
      fail(line_no, "unknown directive '" + tok + "'");
    } else {
      kiss::Transition t;
      t.input = tok;
      if (!(ls >> t.current >> t.next >> t.output)) {
        fail(line_no, "transition needs 4 fields");
      }
      if (!saw_i || !saw_o) fail(line_no, ".i/.o must precede transitions");
      if (!is_pattern(t.input, true) ||
          static_cast<int>(t.input.size()) != k.num_inputs) {
        fail(line_no, "bad input cube '" + t.input + "'");
      }
      if (!is_pattern(t.output, true) ||
          static_cast<int>(t.output.size()) != k.num_outputs) {
        fail(line_no, "bad output pattern '" + t.output + "'");
      }
      // A deterministic machine cannot fire two rows from the same state on
      // the same input cube; an exact duplicate is always a file error.
      if (!seen_rows.insert(t.current + '\x01' + t.input).second) {
        fail(line_no, "duplicate transition for state '" + t.current +
                          "' on input '" + t.input + "'");
      }
      k.transitions.push_back(std::move(t));
    }
  }

  if (!saw_i || !saw_o) throw std::runtime_error("kiss2: missing .i/.o");
  if (k.transitions.empty()) throw std::runtime_error("kiss2: no transitions");

  std::unordered_set<std::string> states;
  for (const auto& t : k.transitions) {
    states.insert(t.current);
    states.insert(t.next);
  }
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

}  // namespace ced::reference
