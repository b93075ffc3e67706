#include "util/crc_lines.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/crc32.h"

namespace asteria::util {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsNumberChar(char c) {
  return IsDigit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
         c == '-';
}

// Exactly `digits` lowercase hex digits at `p` (the caller checked bounds).
bool ParseLowerHex(const char* p, std::size_t digits, std::uint64_t* out) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < digits; ++i) {
    const char c = p[i];
    std::uint64_t nibble = 0;
    if (IsDigit(c)) {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    value = value << 4 | nibble;
  }
  *out = value;
  return true;
}

}  // namespace

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string CrcLine(const char* tag, const std::string& json) {
  char crc[12];
  std::snprintf(crc, sizeof(crc), " %08x ", Crc32(json.data(), json.size()));
  return std::string(tag) + crc + json + "\n";
}

bool WriteCrcLines(const std::string& path, const std::string& lines,
                   bool append, std::string* error) {
  const int fd = ::open(
      path.c_str(),
      O_WRONLY | O_CREAT | O_CLOEXEC | (append ? O_APPEND : O_TRUNC), 0644);
  if (fd < 0) {
    *error = path + ": open failed: " + std::strerror(errno);
    return false;
  }
  std::size_t done = 0;
  while (done < lines.size()) {
    const ssize_t n = ::write(fd, lines.data() + done, lines.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = path + ": write failed: " + std::strerror(errno);
      ::close(fd);
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    *error = path + ": fsync failed: " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  ::close(fd);
  return true;
}

bool ReadCrcLines(const std::string& path, const char* tag, bool missing_ok,
                  const std::function<bool(const std::string& json)>& parse,
                  int* corrupt_lines, std::string* error) {
  if (corrupt_lines != nullptr) *corrupt_lines = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (missing_ok && errno == ENOENT) return true;
    *error = path + ": open failed: " + std::strerror(errno);
    return false;
  }
  std::string contents;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    *error = path + ": read failed";
    return false;
  }
  // "<tag> " + 8 hex + " " + json, the CRC over the json bytes.
  const std::size_t tag_size = std::strlen(tag);
  const std::size_t crc_at = tag_size + 1;
  const std::size_t json_at = crc_at + 9;
  std::size_t start = 0;
  while (start < contents.size()) {
    std::size_t newline = contents.find('\n', start);
    // A final line with no terminating newline is a torn tail by definition
    // (the writer always ends lines), so it lands in the corrupt count.
    const bool terminated = newline != std::string::npos;
    if (!terminated) newline = contents.size();
    const std::string line = contents.substr(start, newline - start);
    start = newline + 1;
    if (line.empty()) continue;
    std::uint64_t declared = 0;
    bool good = terminated && line.size() > json_at &&
                line.compare(0, tag_size, tag) == 0 && line[tag_size] == ' ' &&
                ParseLowerHex(line.data() + crc_at, 8, &declared) &&
                line[json_at - 1] == ' ';
    if (good) {
      const std::string json = line.substr(json_at);
      good = Crc32(json.data(), json.size()) == declared && parse(json);
    }
    if (!good && corrupt_lines != nullptr) ++*corrupt_lines;
  }
  return true;
}

bool JsonCursor::Expect(const char* token) {
  const std::size_t size = std::strlen(token);
  if (text_.compare(pos_, size, token) != 0) return false;
  pos_ += size;
  return true;
}

bool JsonCursor::String(std::string* out) {
  if (pos_ >= text_.size() || text_[pos_] != '"') return false;
  ++pos_;
  out->clear();
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return true;
    }
    if (c == '\\') {
      if (pos_ + 1 >= text_.size()) return false;
      const char esc = text_[pos_ + 1];
      if (esc == '"' || esc == '\\') {
        out->push_back(esc);
        pos_ += 2;
        continue;
      }
      // The writer only emits \u00XX, for control bytes.
      std::uint64_t value = 0;
      if (esc != 'u' || pos_ + 6 > text_.size() ||
          text_.compare(pos_ + 2, 2, "00") != 0 ||
          !ParseLowerHex(text_.data() + pos_ + 4, 2, &value)) {
        return false;
      }
      out->push_back(static_cast<char>(value));
      pos_ += 6;
      continue;
    }
    out->push_back(c);
    ++pos_;
  }
  return false;
}

bool JsonCursor::HexString(std::size_t digits, std::uint64_t* out) {
  if (digits > 16 || pos_ + digits + 2 > text_.size() || text_[pos_] != '"' ||
      !ParseLowerHex(text_.data() + pos_ + 1, digits, out) ||
      text_[pos_ + digits + 1] != '"') {
    return false;
  }
  pos_ += digits + 2;
  return true;
}

bool JsonCursor::Unsigned(std::uint64_t* out) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::size_t start = pos_;
  std::uint64_t value = 0;
  while (pos_ < text_.size() && IsDigit(text_[pos_])) {
    const std::uint64_t digit = static_cast<std::uint64_t>(text_[pos_] - '0');
    if (value > (kMax - digit) / 10) return false;
    value = value * 10 + digit;
    ++pos_;
  }
  *out = value;
  return pos_ > start;
}

bool JsonCursor::Signed(std::int64_t* out) {
  const bool negative = pos_ < text_.size() && text_[pos_] == '-';
  if (negative) ++pos_;
  std::uint64_t magnitude = 0;
  if (!Unsigned(&magnitude)) return false;
  constexpr std::uint64_t kMaxPositive =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (magnitude > kMaxPositive + (negative ? 1 : 0)) return false;
  // Negate in unsigned arithmetic: -2^63 has no positive int64 twin.
  *out = negative ? static_cast<std::int64_t>(0 - magnitude)
                  : static_cast<std::int64_t>(magnitude);
  return true;
}

bool JsonCursor::Double(double* out) {
  const std::size_t start = pos_;
  if (start >= text_.size() ||
      !(text_[start] == '-' || IsDigit(text_[start]))) {
    return false;
  }
  std::size_t end = start;
  while (end < text_.size() && IsNumberChar(text_[end])) ++end;
  const std::string number = text_.substr(start, end - start);
  char* stop = nullptr;
  errno = 0;
  const double value = std::strtod(number.c_str(), &stop);
  if (errno != 0 || stop != number.c_str() + number.size() ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  pos_ = end;
  return true;
}

}  // namespace asteria::util
