// Hostile spellings of a CRC-line's CRC field (util/crc_lines.h), shared by
// the request-log and alert-log corrupt-line tests.
//
// Each line carries a JSON body the log's parser accepts and a CRC field
// that strtoul(…, 16) reads as that body's true CRC, yet breaks the
// "exactly 8 lowercase hex digits" rule: a 0x prefix, a leading space, a
// leading '+', a negative that wraps modulo 2^32, and upper case. A strict
// reader counts every one of them corrupt.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "util/crc32.h"

namespace asteria {

// `json_for(i)` must return a parseable body for every i >= 0 whose bytes
// vary with i, so the search below finds bodies with the CRC shapes each
// spelling needs (a CRC under 2^24: ~256 tries; over 0xf0000000: ~16).
inline std::vector<std::string> MisspelledCrcLines(
    const std::string& tag, const std::function<std::string(int)>& json_for) {
  const auto crc_of = [](const std::string& json) {
    return util::Crc32(json.data(), json.size());
  };
  const auto hex = [](std::uint32_t value, int digits) {
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%0*x", digits, value);
    return std::string(buffer);
  };
  std::string small;   // CRC < 2^24: "0x" + 6 digits is still 8 bytes
  std::string large;   // CRC > 0xf0000000: "-" + 7 digits wraps onto it
  std::string letters; // CRC with a hex letter, for the upper-case spelling
  for (int i = 0; small.empty() || large.empty() || letters.empty(); ++i) {
    const std::string json = json_for(i);
    const std::uint32_t crc = crc_of(json);
    if (small.empty() && crc < (1u << 24)) small = json;
    if (large.empty() && crc > 0xf0000000u) large = json;
    if (letters.empty() && hex(crc, 8).find_first_of("abcdef") !=
                               std::string::npos) {
      letters = json;
    }
  }
  std::string upper = hex(crc_of(letters), 8);
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  const auto line = [&tag](const std::string& crc, const std::string& json) {
    return tag + " " + crc + " " + json + "\n";
  };
  return {
      line("0x" + hex(crc_of(small), 6), small),
      line(" " + hex(crc_of(small), 7), small),
      line("+" + hex(crc_of(small), 7), small),
      line("-" + hex(0u - crc_of(large), 7), large),
      line(upper, letters),
  };
}

}  // namespace asteria
