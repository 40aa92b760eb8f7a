/// Fuzz-style robustness tests: the parsers and codecs must never crash or
/// corrupt state on arbitrary input — they either succeed or throw.
///
/// The buffer-driven tests go through the shared drivers in
/// fuzz_drivers.hpp — the same code libFuzzer runs when the fuzz_libfuzzer
/// target is built (-DDPS_LIBFUZZER=ON) — so this always-built gtest
/// harness is the guaranteed-coverage fallback.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz_drivers.hpp"
#include "net/protocol.hpp"
#include "util/csv_reader.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

namespace dps {
namespace {

std::string random_text(Rng& rng, std::size_t length,
                        const std::string& alphabet) {
  std::string text;
  text.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    text += alphabet[rng.uniform_int(alphabet.size())];
  }
  return text;
}

class FuzzSeeds : public testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, ProtocolDecodeTotalOnRandomBytes) {
  Rng rng(GetParam());
  for (int i = 0; i < 20000; ++i) {
    WireBytes bytes = {static_cast<std::uint8_t>(rng.uniform_int(256)),
                       static_cast<std::uint8_t>(rng.uniform_int(256)),
                       static_cast<std::uint8_t>(rng.uniform_int(256))};
    const auto message = decode(bytes);
    if (message && message->type == MessageType::kHello) {
      // Hello payloads are version/unit, not deciwatts: the handshake
      // codec must round-trip them exactly, for any payload bytes.
      const auto hello = decode_hello(bytes);
      ASSERT_TRUE(hello.has_value());
      const auto round = encode_hello(*hello);
      EXPECT_EQ(round[0], bytes[0]);
      EXPECT_EQ(round[1], bytes[1]);
      EXPECT_EQ(round[2], bytes[2]);
    } else if (message) {
      // Whatever decodes must re-encode to the same bytes (value within
      // codec range by construction).
      const auto round = encode(*message);
      EXPECT_EQ(round[0], bytes[0]);
      EXPECT_EQ(round[1], bytes[1]);
      EXPECT_EQ(round[2], bytes[2]);
    }
  }
}

TEST_P(FuzzSeeds, IniParseNeverCrashes) {
  Rng rng(GetParam() ^ 0x1111ULL);
  const std::string alphabet = "abz019 \t[]=#;\n\"'-._";
  for (int i = 0; i < 300; ++i) {
    const auto text = random_text(rng, rng.uniform_int(400), alphabet);
    try {
      const auto ini = IniFile::parse(text);
      (void)ini.get("a", "b");
      (void)ini.line_of("", "x");
      (void)ini.has_section("s");
    } catch (const ConfigError&) {
      // Throwing on malformed text is the contract.
    }
  }
}

TEST_P(FuzzSeeds, CsvParseNeverCrashes) {
  Rng rng(GetParam() ^ 0x2222ULL);
  const std::string alphabet = "ab,\"\n\r01.-x";
  for (int i = 0; i < 300; ++i) {
    const auto text = random_text(rng, rng.uniform_int(400), alphabet);
    try {
      const auto csv = CsvReader::parse(text);
      for (std::size_t r = 0; r < csv.num_rows(); ++r) {
        (void)csv.cell(r, std::string("a"));
        (void)csv.number(r, std::string("b"));
      }
      (void)csv.column_as_doubles("a");
    } catch (const std::runtime_error&) {
      // Unterminated quotes throw; everything else must parse.
    }
  }
}

TEST_P(FuzzSeeds, WellFormedCsvAlwaysParses) {
  // Text without quote characters can never be malformed CSV.
  Rng rng(GetParam() ^ 0x3333ULL);
  const std::string alphabet = "abc,\n01";
  for (int i = 0; i < 300; ++i) {
    const auto text = random_text(rng, rng.uniform_int(300), alphabet);
    EXPECT_NO_THROW(CsvReader::parse(text));
  }
}

TEST_P(FuzzSeeds, SharedDriversTotalOnRandomBuffers) {
  // Random byte buffers through the exact entry points the libFuzzer
  // harness dispatches to.
  Rng rng(GetParam() ^ 0x4444ULL);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> buffer(rng.uniform_int(300));
    for (auto& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    EXPECT_TRUE(fuzz::drive_protocol(buffer.data(), buffer.size()));
    fuzz::drive_ini(buffer.data(), buffer.size());
    fuzz::drive_csv(buffer.data(), buffer.size());
  }
}

TEST_P(FuzzSeeds, FaultPlanDriverInvariantsHold) {
  // Arbitrary bytes -> generator knobs + hostile raw event lists; the
  // driver checks validation, sortedness, and that a full injector walk
  // activates every event and leaves nothing stuck (see fuzz_drivers.hpp).
  Rng rng(GetParam() ^ 0x5555ULL);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> buffer(rng.uniform_int(200));
    for (auto& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    EXPECT_TRUE(fuzz::drive_fault_plan(buffer.data(), buffer.size()));
  }
}

TEST_P(FuzzSeeds, ConfigDriverInvariantsHold) {
  // Arbitrary bytes -> hostile values for one section's declared keys;
  // the driver checks that loading either validates or throws a
  // ConfigError naming section and key, and that accepted configs
  // round-trip exactly through write_section (see fuzz_drivers.hpp).
  Rng rng(GetParam() ^ 0x6666ULL);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> buffer(rng.uniform_int(64));
    for (auto& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    EXPECT_TRUE(fuzz::drive_config(buffer.data(), buffer.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         testing::Values(42u, 4242u, 424242u));

}  // namespace
}  // namespace dps
