// Byte-identity pin: q, the selected parity masks, the table size and the
// CED gate count of every small-suite circuit at p = 1..3, recorded from
// the solver before the scalar/bitsliced kernel modes and the dense LP
// mode were removed from production. Every run must reproduce them at 1
// and 4 threads, on the host's vector engine and on the forced scalar
// word loop.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchdata/suite.hpp"
#include "common/cpu.hpp"
#include "core/parity.hpp"
#include "core/run.hpp"

namespace ced {
namespace {

struct Pinned {
  const char* circuit;
  int latency;
  std::vector<core::ParityFunc> parities;
  std::size_t cases;
  std::size_t ced_gates;
};

const std::vector<Pinned>& pinned() {
  static const std::vector<Pinned> pins = {
      {"s27", 1, {0x5ull, 0x9ull, 0x2ull}, 14, 54},
      {"s27", 2, {0x5ull, 0x9ull, 0x2ull}, 14, 54},
      {"s27", 3, {0x5ull, 0x9ull, 0x2ull}, 14, 54},
      {"tav", 1, {0x2ull, 0x30ull, 0x15ull, 0x1ull, 0x9ull}, 52, 98},
      {"tav", 2, {0x29ull, 0x2ull, 0x31ull, 0x4ull}, 51, 85},
      {"tav", 3, {0x29ull, 0x2ull, 0x31ull, 0x4ull}, 51, 85},
      {"dk14", 1, {0xacull, 0xfull, 0x11ull, 0x61ull}, 128, 123},
      {"dk14", 2, {0xacull, 0xfull, 0x11ull, 0x61ull}, 126, 123},
      {"dk14", 3, {0xacull, 0xfull, 0x11ull, 0x61ull}, 126, 123},
      {"donfile", 1, {0x12ull, 0xbull, 0x4ull, 0x21ull, 0x3ull}, 58, 211},
      {"donfile", 2, {0x2ull, 0x25ull, 0x14ull, 0x9ull, 0x1ull}, 56, 185},
      {"donfile", 3, {0x2ull, 0x25ull, 0x14ull, 0x9ull, 0x1ull}, 56, 185},
      {"dk16", 1, {0x65ull, 0x82ull, 0x17ull, 0xaull, 0x21ull}, 198, 264},
      {"dk16", 2, {0x65ull, 0x6eull, 0xcull, 0x51ull, 0x11ull, 0x81ull}, 192, 323},
      {"dk16", 3, {0x65ull, 0x6eull, 0xcull, 0x51ull, 0x11ull, 0x81ull}, 192, 323},
      {"s386", 1, {0x61ull, 0x41full, 0x7f2ull, 0x222ull, 0x315ull, 0x83ull}, 640, 350},
      {"s386", 2, {0x51ull, 0x61cull, 0x503ull, 0x125ull, 0x92ull, 0x201ull}, 626, 340},
      {"s386", 3, {0x51ull, 0x61cull, 0x503ull, 0x125ull, 0x92ull, 0x201ull}, 627, 340},
  };
  return pins;
}

TEST(SchemePin, SmallSuiteMatchesPinnedSchemes) {
  std::vector<std::string> circuits;
  for (const Pinned& pin : pinned()) {
    if (circuits.empty() || circuits.back() != pin.circuit) {
      circuits.push_back(pin.circuit);
    }
  }
  ASSERT_EQ(circuits, benchdata::small_suite_names());

  for (const SimdLevel level : {detected_simd_level(), SimdLevel::kNone}) {
    const ScopedSimdLevel cap(level);
    for (const int threads : {1, 4}) {
      for (const Pinned& pin : pinned()) {
        const fsm::Fsm f = benchdata::suite_fsm(pin.circuit);
        const auto cfg = RunConfig::Builder()
                             .latency(pin.latency)
                             .threads(threads)
                             .build();
        ASSERT_TRUE(cfg.has_value()) << cfg.status().to_text();
        const core::PipelineReport rep = run_pipeline(f, *cfg);
        const std::string where = std::string(pin.circuit) + " p=" +
                                  std::to_string(pin.latency) + " threads=" +
                                  std::to_string(threads) + " simd=" +
                                  to_string(level);
        EXPECT_FALSE(rep.resilience.degraded()) << where;
        EXPECT_EQ(rep.parities, pin.parities) << where;
        EXPECT_EQ(rep.num_trees, static_cast<int>(pin.parities.size()))
            << where;
        EXPECT_EQ(rep.num_cases, pin.cases) << where;
        EXPECT_EQ(rep.ced_gates, pin.ced_gates) << where;
      }
    }
  }
}

}  // namespace
}  // namespace ced
