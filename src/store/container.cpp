#include "store/container.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace asteria::store {

namespace {

// Fault-injection points covering every I/O step of a container's life
// (docs/ROBUSTNESS.md). store.crash simulates dying after the temp file is
// fully written but before the atomic rename — the window a real crash
// would hit.
util::Failpoint fp_open("store.open");
util::Failpoint fp_write("store.write");
util::Failpoint fp_rename("store.rename");
util::Failpoint fp_crash("store.crash");
util::Failpoint fp_read_open("store.read_open");
util::Failpoint fp_read("store.read");

// Payload traffic only (framing/header bytes excluded): what flows through
// WriteChunk and ReadChunk, so cache effectiveness is readable directly.
util::Counter c_bytes_written("store.bytes_written");
util::Counter c_bytes_read("store.bytes_read");
util::Counter c_crc_failures("store.crc_failures");

// Header: magic[8] "ASTRSTOR", u32 container version, u32 file kind
// (fourcc), u8 endianness tag (1 = little), 3 reserved zero bytes.
constexpr char kMagic[8] = {'A', 'S', 'T', 'R', 'S', 'T', 'O', 'R'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 1 + 3;
constexpr std::uint8_t kLittleEndianTag = 1;
// Per-chunk framing: u32 tag, u64 payload size, u32 payload crc32.
constexpr std::size_t kChunkHeaderSize = 4 + 8 + 4;

void AppendU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v >> 16));
  out->push_back(static_cast<std::uint8_t>(v >> 24));
}

void AppendU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t DecodeU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t DecodeU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::string AtOffset(const std::string& path, std::uint64_t offset) {
  return path + " (offset " + std::to_string(offset) + ")";
}

// Validates a header in `bytes`; returns false with a reason otherwise.
bool ParseHeader(const std::string& path, const std::uint8_t* bytes,
                 std::size_t size, std::uint32_t expected_kind,
                 std::uint32_t* version, std::uint32_t* kind,
                 std::string* error) {
  if (size < kHeaderSize) {
    *error = path + ": file too small for a container header (" +
             std::to_string(size) + " < " + std::to_string(kHeaderSize) +
             " bytes)";
    return false;
  }
  if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0) {
    *error = path + ": bad magic — not an asteria container file";
    return false;
  }
  *version = DecodeU32(bytes + 8);
  *kind = DecodeU32(bytes + 12);
  if (*version == 0 || *version > kContainerVersion) {
    *error = path + ": unsupported container version " +
             std::to_string(*version) + " (this build reads <= " +
             std::to_string(kContainerVersion) + ")";
    return false;
  }
  if (bytes[16] != kLittleEndianTag) {
    *error = path + ": unknown endianness tag " +
             std::to_string(static_cast<int>(bytes[16])) +
             " (expected 1 = little-endian)";
    return false;
  }
  if (expected_kind != 0 && *kind != expected_kind) {
    *error = path + ": wrong file kind " + FourCcName(*kind) + " (expected " +
             FourCcName(expected_kind) + ")";
    return false;
  }
  return true;
}

// Scans the chunk sequence of an open file starting at kHeaderSize.
// `file_size` must be the true size. Fills `chunks`; fails on any frame
// that does not fit, which also catches truncated files.
bool ScanChunks(std::FILE* file, const std::string& path,
                std::uint64_t file_size, std::vector<ChunkInfo>* chunks,
                std::string* error) {
  std::uint64_t offset = kHeaderSize;
  std::array<std::uint8_t, kChunkHeaderSize> frame;
  while (offset < file_size) {
    if (file_size - offset < kChunkHeaderSize) {
      *error = AtOffset(path, offset) + ": truncated chunk header (" +
               std::to_string(file_size - offset) + " trailing bytes)";
      return false;
    }
    if (std::fseek(file, static_cast<long>(offset), SEEK_SET) != 0 ||
        std::fread(frame.data(), 1, frame.size(), file) != frame.size()) {
      *error = AtOffset(path, offset) + ": read of chunk header failed";
      return false;
    }
    ChunkInfo info;
    info.tag = DecodeU32(frame.data());
    info.size = DecodeU64(frame.data() + 4);
    info.crc32 = DecodeU32(frame.data() + 12);
    info.offset = offset + kChunkHeaderSize;
    if (info.size > file_size - info.offset) {
      *error = AtOffset(path, offset) + ": chunk " + FourCcName(info.tag) +
               " declares " + std::to_string(info.size) +
               " payload bytes but only " +
               std::to_string(file_size - info.offset) +
               " remain — truncated file";
      return false;
    }
    chunks->push_back(info);
    offset = info.offset + info.size;
  }
  return true;
}

bool FileSize(std::FILE* file, const std::string& path, std::uint64_t* size,
              std::string* error) {
  if (std::fseek(file, 0, SEEK_END) != 0) {
    *error = path + ": cannot seek to end";
    return false;
  }
  const long end = std::ftell(file);
  if (end < 0) {
    *error = path + ": cannot determine file size";
    return false;
  }
  *size = static_cast<std::uint64_t>(end);
  return true;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  return util::Crc32(data, size, seed);
}

std::string FourCcName(std::uint32_t fourcc) {
  std::string name;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((fourcc >> (8 * i)) & 0xFF);
    name.push_back(c >= 32 && c < 127 ? c : '?');
  }
  return name;
}

void ChunkBuilder::PutU32(std::uint32_t v) { AppendU32(&bytes_, v); }
void ChunkBuilder::PutU64(std::uint64_t v) { AppendU64(&bytes_, v); }

void ChunkBuilder::PutF64(double v) {
  AppendU64(&bytes_, std::bit_cast<std::uint64_t>(v));
}

void ChunkBuilder::PutString(const std::string& s) {
  PutU32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void ChunkBuilder::PutBytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

void ChunkBuilder::PutF64Array(const double* data, std::size_t count) {
  bytes_.reserve(bytes_.size() + count * 8);
  for (std::size_t i = 0; i < count; ++i) PutF64(data[i]);
}

bool ChunkParser::Need(std::size_t n, std::string* error) {
  if (size_ - offset_ < n) {
    if (error != nullptr) {
      *error = "chunk payload overrun: need " + std::to_string(n) +
               " bytes at offset " + std::to_string(offset_) + " of " +
               std::to_string(size_);
    }
    return false;
  }
  return true;
}

bool ChunkParser::GetU8(std::uint8_t* v, std::string* error) {
  if (!Need(1, error)) return false;
  *v = data_[offset_++];
  return true;
}

bool ChunkParser::GetU32(std::uint32_t* v, std::string* error) {
  if (!Need(4, error)) return false;
  *v = DecodeU32(data_ + offset_);
  offset_ += 4;
  return true;
}

bool ChunkParser::GetU64(std::uint64_t* v, std::string* error) {
  if (!Need(8, error)) return false;
  *v = DecodeU64(data_ + offset_);
  offset_ += 8;
  return true;
}

bool ChunkParser::GetI32(std::int32_t* v, std::string* error) {
  std::uint32_t u = 0;
  if (!GetU32(&u, error)) return false;
  *v = static_cast<std::int32_t>(u);
  return true;
}

bool ChunkParser::GetI64(std::int64_t* v, std::string* error) {
  std::uint64_t u = 0;
  if (!GetU64(&u, error)) return false;
  *v = static_cast<std::int64_t>(u);
  return true;
}

bool ChunkParser::GetF64(double* v, std::string* error) {
  std::uint64_t u = 0;
  if (!GetU64(&u, error)) return false;
  *v = std::bit_cast<double>(u);
  return true;
}

bool ChunkParser::GetString(std::string* v, std::string* error) {
  std::uint32_t length = 0;
  if (!GetU32(&length, error)) return false;
  // Validate the declared length against the remaining payload BEFORE the
  // allocation in assign() — a hostile length must fail cleanly, not OOM.
  if (length > size_ - offset_) {
    if (error != nullptr) {
      *error = "declared string length " + std::to_string(length) +
               " exceeds the " + std::to_string(size_ - offset_) +
               " remaining payload bytes";
    }
    return false;
  }
  v->assign(reinterpret_cast<const char*>(data_ + offset_), length);
  offset_ += length;
  return true;
}

bool ChunkParser::GetF64Array(double* out, std::size_t count,
                              std::string* error) {
  // Division, not `count * 8`: the multiplication can wrap size_t for a
  // corrupt count and sail past the bounds check.
  if (count > (size_ - offset_) / 8) {
    if (error != nullptr) {
      *error = "declared f64 count " + std::to_string(count) +
               " exceeds the " + std::to_string(size_ - offset_) +
               " remaining payload bytes";
    }
    return false;
  }
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = std::bit_cast<double>(DecodeU64(data_ + offset_));
    offset_ += 8;
  }
  return true;
}

struct Writer::Impl {
  std::FILE* file = nullptr;
  std::string path;       // final artifact path (rename target)
  std::string temp_path;  // where bytes actually land until Finish
  bool failed = false;
  // Set by the store.crash failpoint: leave the temp file on disk exactly
  // as a real mid-commit crash would, instead of cleaning it up.
  bool abandoned = false;
};

Writer::~Writer() {
  if (impl_ != nullptr) {
    if (impl_->file != nullptr) std::fclose(impl_->file);
    // Never committed: drop the temp file so failures leave no debris
    // (unless a simulated crash wants the debris observable).
    if (!impl_->temp_path.empty() && !impl_->abandoned) {
      std::remove(impl_->temp_path.c_str());
    }
    delete impl_;
  }
}

bool Writer::Open(const std::string& path, std::uint32_t kind,
                  std::string* error) {
  const std::string temp_path = path + ".tmp";
  std::FILE* file =
      fp_open.ShouldFail() ? nullptr : std::fopen(temp_path.c_str(), "wb");
  if (file == nullptr) {
    *error = temp_path + ": cannot open for writing";
    return false;
  }
  std::vector<std::uint8_t> header(kMagic, kMagic + sizeof(kMagic));
  AppendU32(&header, kContainerVersion);
  AppendU32(&header, kind);
  header.push_back(kLittleEndianTag);
  header.resize(kHeaderSize, 0);
  if (fp_write.ShouldFail() ||
      std::fwrite(header.data(), 1, header.size(), file) != header.size()) {
    *error = temp_path + ": header write failed";
    std::fclose(file);
    std::remove(temp_path.c_str());
    return false;
  }
  impl_ = new Impl{file, path, temp_path, false, false};
  return true;
}

bool Writer::OpenAppend(const std::string& path, std::uint32_t kind,
                        std::string* error) {
  // Validate the existing artifact first (header + chunk walk), then copy
  // it to the temp path and extend the copy; the original stays intact
  // until Finish renames over it.
  std::FILE* src =
      fp_open.ShouldFail() ? nullptr : std::fopen(path.c_str(), "rb");
  if (src == nullptr) {
    *error = path + ": cannot open for appending";
    return false;
  }
  std::uint64_t size = 0;
  if (!FileSize(src, path, &size, error)) {
    std::fclose(src);
    return false;
  }
  std::array<std::uint8_t, kHeaderSize> header;
  if (std::fseek(src, 0, SEEK_SET) != 0 ||
      std::fread(header.data(), 1, header.size(), src) != header.size()) {
    *error = path + ": header read failed";
    std::fclose(src);
    return false;
  }
  std::uint32_t version = 0, found_kind = 0;
  std::vector<ChunkInfo> chunks;
  if (!ParseHeader(path, header.data(), header.size(), kind, &version,
                   &found_kind, error) ||
      !ScanChunks(src, path, size, &chunks, error)) {
    std::fclose(src);
    return false;
  }
  const std::string temp_path = path + ".tmp";
  std::FILE* file = std::fopen(temp_path.c_str(), "wb");
  if (file == nullptr) {
    *error = temp_path + ": cannot open for writing";
    std::fclose(src);
    return false;
  }
  if (std::fseek(src, 0, SEEK_SET) != 0) {
    *error = path + ": cannot rewind for copy";
    std::fclose(src);
    std::fclose(file);
    std::remove(temp_path.c_str());
    return false;
  }
  std::array<std::uint8_t, 1 << 16> buffer;
  bool copy_failed = fp_write.ShouldFail();
  while (!copy_failed) {
    const std::size_t got = std::fread(buffer.data(), 1, buffer.size(), src);
    if (got == 0) break;
    if (std::fwrite(buffer.data(), 1, got, file) != got) copy_failed = true;
  }
  copy_failed = copy_failed || std::ferror(src) != 0;
  std::fclose(src);
  if (copy_failed) {
    *error = temp_path + ": copy for append failed";
    std::fclose(file);
    std::remove(temp_path.c_str());
    return false;
  }
  impl_ = new Impl{file, path, temp_path, false, false};
  return true;
}

bool Writer::WriteChunk(std::uint32_t tag, const ChunkBuilder& payload,
                        std::string* error) {
  if (impl_ == nullptr || impl_->file == nullptr) {
    *error = "writer not open";
    return false;
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(kChunkHeaderSize);
  AppendU32(&frame, tag);
  AppendU64(&frame, payload.size());
  AppendU32(&frame, Crc32(payload.bytes().data(), payload.size()));
  if (fp_write.ShouldFail() ||
      std::fwrite(frame.data(), 1, frame.size(), impl_->file) !=
          frame.size() ||
      std::fwrite(payload.bytes().data(), 1, payload.size(), impl_->file) !=
          payload.size()) {
    impl_->failed = true;
    *error = impl_->temp_path + ": chunk write failed";
    return false;
  }
  c_bytes_written.Add(payload.size());
  return true;
}

bool Writer::Finish(std::string* error) {
  if (impl_ == nullptr || impl_->file == nullptr) {
    *error = "writer not open";
    return false;
  }
  const bool flush_ok = std::fflush(impl_->file) == 0;
  const bool close_ok = std::fclose(impl_->file) == 0;
  impl_->file = nullptr;
  if (impl_->failed || !flush_ok || !close_ok) {
    std::remove(impl_->temp_path.c_str());
    *error = impl_->path + ": finishing container failed";
    return false;
  }
  if (fp_crash.ShouldFail()) {
    // Simulated crash between "temp fully written" and the commit rename:
    // the temp file stays on disk (as after a real crash) and the final
    // path still holds the previous artifact.
    impl_->abandoned = true;
    *error = impl_->path + ": simulated crash before commit rename "
             "(failpoint store.crash)";
    return false;
  }
  if (fp_rename.ShouldFail() ||
      std::rename(impl_->temp_path.c_str(), impl_->path.c_str()) != 0) {
    std::remove(impl_->temp_path.c_str());
    *error = impl_->path + ": commit rename from " + impl_->temp_path +
             " failed";
    return false;
  }
  impl_->temp_path.clear();  // committed: nothing left to clean up
  return true;
}

struct Reader::Impl {
  std::FILE* file = nullptr;
  std::string path;
};

Reader::~Reader() {
  if (impl_ != nullptr) {
    if (impl_->file != nullptr) std::fclose(impl_->file);
    delete impl_;
  }
}

bool Reader::Open(const std::string& path, std::uint32_t expected_kind,
                  std::string* error) {
  std::FILE* file =
      fp_read_open.ShouldFail() ? nullptr : std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    *error = path + ": cannot open for reading";
    return false;
  }
  std::uint64_t size = 0;
  if (!FileSize(file, path, &size, error)) {
    std::fclose(file);
    return false;
  }
  std::array<std::uint8_t, kHeaderSize> header;
  if (std::fseek(file, 0, SEEK_SET) != 0 ||
      std::fread(header.data(), 1, header.size(), file) !=
          std::min<std::size_t>(header.size(), size)) {
    *error = path + ": header read failed";
    std::fclose(file);
    return false;
  }
  if (!ParseHeader(path, header.data(), std::min<std::size_t>(size, header.size()),
                   expected_kind, &version_, &kind_, error) ||
      !ScanChunks(file, path, size, &chunks_, error)) {
    std::fclose(file);
    chunks_.clear();
    return false;
  }
  impl_ = new Impl{file, path};
  return true;
}

bool Reader::ReadChunk(std::size_t index, std::vector<std::uint8_t>* payload,
                       std::string* error) const {
  if (impl_ == nullptr || impl_->file == nullptr) {
    *error = "reader not open";
    return false;
  }
  if (index >= chunks_.size()) {
    *error = impl_->path + ": chunk index " + std::to_string(index) +
             " out of range (" + std::to_string(chunks_.size()) + " chunks)";
    return false;
  }
  const ChunkInfo& info = chunks_[index];
  payload->resize(info.size);
  if (fp_read.ShouldFail() ||
      std::fseek(impl_->file, static_cast<long>(info.offset), SEEK_SET) != 0 ||
      std::fread(payload->data(), 1, payload->size(), impl_->file) !=
          payload->size()) {
    *error = AtOffset(impl_->path, info.offset) + ": chunk payload read failed";
    return false;
  }
  c_bytes_read.Add(payload->size());
  const std::uint32_t actual = Crc32(payload->data(), payload->size());
  if (actual != info.crc32) {
    c_crc_failures.Increment();
    char expect[16], got[16];
    std::snprintf(expect, sizeof(expect), "%08x", info.crc32);
    std::snprintf(got, sizeof(got), "%08x", actual);
    *error = AtOffset(impl_->path, info.offset) + ": CRC32 mismatch in chunk " +
             FourCcName(info.tag) + " (declared " + expect + ", computed " +
             got + ") — file is corrupted";
    return false;
  }
  return true;
}

bool PeekKind(const std::string& path, std::uint32_t* kind,
              std::string* error) {
  std::FILE* file =
      fp_read_open.ShouldFail() ? nullptr : std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    *error = path + ": cannot open for reading";
    return false;
  }
  std::array<std::uint8_t, kHeaderSize> header;
  const std::size_t got = std::fread(header.data(), 1, header.size(), file);
  std::fclose(file);
  std::uint32_t version = 0;
  return ParseHeader(path, header.data(), got, /*expected_kind=*/0, &version,
                     kind, error);
}

bool QuarantineFile(const std::string& path, std::string* quarantined_path) {
  const std::string target = path + ".corrupt";
  std::remove(target.c_str());  // only the latest quarantine is kept
  if (std::rename(path.c_str(), target.c_str()) != 0) return false;
  if (quarantined_path != nullptr) *quarantined_path = target;
  return true;
}

}  // namespace asteria::store
