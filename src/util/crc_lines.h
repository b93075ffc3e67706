// CRC-line files: the append-only, self-checking text format shared by the
// CVE-alert log (<index_dir>/alerts.jsonl, tag ALRT) and the request-record
// logs (the daemon's slow-query log and --request_log_out / --trace_out
// dumps, tag SLOW). docs/FORMATS.md has the full grammar.
//
//   TAG <crc32> <json>\n
//
// TAG is four ASCII bytes, <crc32> is util::Crc32 of the JSON bytes as
// exactly 8 lowercase hex digits, and <json> is one single-line object
// whose keys the writer emits in a fixed order. A writer appends a whole
// batch with one O_APPEND write + fsync, so a crash tears at most the last
// line. The reader skips and counts every line that is unterminated,
// carries another tag, spells its CRC any other way, fails the CRC, or
// does not parse; none of them fails the read.
//
// The JSON side is deliberately minimal: the writer controls the schema,
// so JsonCursor accepts exactly what the writers emit — literal key
// tokens, strings with the three escapes AppendJsonString produces, plain
// decimal integers, and finite doubles — and nothing looser.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace asteria::util {

// Appends `s` as a JSON string literal. Only quote, backslash and control
// bytes are escaped (\" \\ \u00XX); every other byte passes through.
void AppendJsonString(const std::string& s, std::string* out);

// One framed line: "<tag> <8 lowercase hex CRC of json> <json>\n".
std::string CrcLine(const char* tag, const std::string& json);

// Writes `lines` (whole CRC lines) to `path` with one write loop and one
// fsync: appended when `append`, else replacing the file.
bool WriteCrcLines(const std::string& path, const std::string& lines,
                   bool append, std::string* error);

// Reads every line of `path`, handing each CRC-verified `tag` line's JSON to
// `parse`, which returns false when the JSON does not parse. Bad lines (see
// the file comment) are counted in `corrupt_lines` (may be null). A missing
// file is an empty log when `missing_ok`; otherwise it, and any other open
// or read failure, returns false with `error`.
bool ReadCrcLines(const std::string& path, const char* tag, bool missing_ok,
                  const std::function<bool(const std::string& json)>& parse,
                  int* corrupt_lines, std::string* error);

// Strict left-to-right parser over one line's JSON. Each method consumes
// its item and returns true, or returns false and leaves the position
// unspecified (the caller abandons the line).
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& json) : text_(json) {}

  // The literal `token`, e.g. ",\"cve\":".
  bool Expect(const char* token);
  // A string literal with only AppendJsonString's escapes.
  bool String(std::string* out);
  // A string literal of exactly `digits` (<= 16) lowercase hex digits.
  bool HexString(std::size_t digits, std::uint64_t* out);
  // One or more decimal digits, in range: no sign, space or prefix.
  bool Unsigned(std::uint64_t* out);
  // Unsigned, optionally preceded by '-'.
  bool Signed(std::int64_t* out);
  // A finite double as "%.17g" prints it: a '-' or a digit first, then
  // digits, '.', and an exponent.
  bool Double(double* out);
  // True once the whole text is consumed.
  bool Done() const { return pos_ == text_.size(); }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace asteria::util
