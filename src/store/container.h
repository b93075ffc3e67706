// Versioned chunked binary container — the on-disk substrate of every
// persistent artifact (model checkpoints, index snapshots, cached corpora,
// firmware encodings). See docs/FORMATS.md for the byte-level spec.
//
// Layout: a fixed 20-byte header (magic, container version, file kind,
// endianness tag) followed by a sequence of self-delimiting chunks. Each
// chunk carries a 4-byte tag, a u64 payload size, and the CRC32 of its
// payload; the reader scans the sequence once to build the chunk table and
// validates the CRC on every payload it hands out. All scalars are encoded
// explicitly little-endian, byte by byte, so files are portable across
// hosts regardless of native endianness.
//
// Append support: because chunks are self-delimiting and there is no
// trailing directory, extending an artifact is "open for append, write more
// chunks". Writer::OpenAppend verifies the existing header and that the
// file ends exactly on a chunk boundary before extending it, so appends
// never bury a truncation.
//
// Error contract: every fallible operation returns false and fills a
// descriptive `error` string (path, offset, expectation vs. reality).
// Nothing in this layer loads partial state silently — a corrupted or
// truncated file is always a loud, diagnosable failure.
//
// Crash safety: the Writer streams to "<path>.tmp" and renames over the
// final path only from a successful Finish(), so a crash (or injected
// util::Failpoint failure) mid-write never leaves a file at `path` that
// opens as valid — the previous artifact, if any, survives untouched. See
// docs/ROBUSTNESS.md for the full failure-handling contract and the
// store.* failpoints threaded through this layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace asteria::store {

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib/PNG variant).
// Chain blocks by passing the previous return value as `seed`.
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

// Container format version written by this build. Readers reject files
// whose major version is newer than what they understand.
inline constexpr std::uint32_t kContainerVersion = 1;

// File kinds (what the container holds). Encoded as a four-character code.
inline constexpr std::uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}
inline constexpr std::uint32_t kKindModel = FourCc('M', 'O', 'D', 'L');
inline constexpr std::uint32_t kKindIndex = FourCc('I', 'N', 'D', 'X');
inline constexpr std::uint32_t kKindCorpus = FourCc('C', 'O', 'R', 'P');
inline constexpr std::uint32_t kKindEncodings = FourCc('F', 'E', 'N', 'C');
inline constexpr std::uint32_t kKindManifest = FourCc('M', 'A', 'N', 'I');

// Renders a fourcc as "ABCD" for error messages and index-info output.
std::string FourCcName(std::uint32_t fourcc);

// An in-memory chunk payload under construction. Scalars go through the
// explicit little-endian writers; strings and blobs are length-prefixed.
class ChunkBuilder {
 public:
  void PutU8(std::uint8_t v) { bytes_.push_back(v); }
  void PutU32(std::uint32_t v);
  void PutU64(std::uint64_t v);
  void PutI32(std::int32_t v) { PutU32(static_cast<std::uint32_t>(v)); }
  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }
  // IEEE-754 bit pattern, little-endian.
  void PutF64(double v);
  // u32 byte length + raw bytes (no terminator).
  void PutString(const std::string& s);
  void PutBytes(const void* data, std::size_t size);
  // Contiguous run of doubles (e.g. a matrix payload).
  void PutF64Array(const double* data, std::size_t count);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Bounds-checked cursor over a chunk payload. Every getter returns false
// (and fills `error`) on overrun instead of reading past the end.
class ChunkParser {
 public:
  ChunkParser(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ChunkParser(const std::vector<std::uint8_t>& bytes)
      : ChunkParser(bytes.data(), bytes.size()) {}

  bool GetU8(std::uint8_t* v, std::string* error);
  bool GetU32(std::uint32_t* v, std::string* error);
  bool GetU64(std::uint64_t* v, std::string* error);
  bool GetI32(std::int32_t* v, std::string* error);
  bool GetI64(std::int64_t* v, std::string* error);
  bool GetF64(double* v, std::string* error);
  bool GetString(std::string* v, std::string* error);
  bool GetF64Array(double* out, std::size_t count, std::string* error);

  std::size_t remaining() const { return size_ - offset_; }
  bool AtEnd() const { return offset_ == size_; }

 private:
  bool Need(std::size_t n, std::string* error);

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t offset_ = 0;
};

// Streams a container to disk: header first, then WriteChunk per chunk.
// All writes go to "<path>.tmp"; Finish() atomically renames it over
// `path`, so readers only ever see the previous artifact or the complete
// new one. An abandoned Writer (destroyed without Finish, or after any
// failure) removes its temp file and leaves `path` untouched.
class Writer {
 public:
  Writer() = default;
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  // Starts a fresh container of `kind` destined for `path` (written to the
  // temp file until Finish commits it).
  bool Open(const std::string& path, std::uint32_t kind, std::string* error);
  // Opens an existing container of `kind` for appending. Validates the
  // header and walks the chunk sizes to confirm the file ends on a chunk
  // boundary (a truncated file is refused, not extended), then copies the
  // file to the temp path and appends there — the original is replaced
  // only by a successful Finish.
  bool OpenAppend(const std::string& path, std::uint32_t kind,
                  std::string* error);

  // Writes one chunk: tag + size + CRC32(payload) + payload.
  bool WriteChunk(std::uint32_t tag, const ChunkBuilder& payload,
                  std::string* error);

  // Flushes, closes, and renames the temp file over the final path;
  // returns false (removing the temp file) if anything failed.
  bool Finish(std::string* error);

 private:
  struct Impl;
  Impl* impl_ = nullptr;
};

// One entry of the reader-built chunk table.
struct ChunkInfo {
  std::uint32_t tag = 0;
  std::uint64_t offset = 0;  // file offset of the payload
  std::uint64_t size = 0;    // payload byte count
  std::uint32_t crc32 = 0;   // declared payload CRC
};

// Opens a container, validates the header, and scans the chunk sequence
// into a table. Payloads are only read (and CRC-checked) on demand.
class Reader {
 public:
  Reader() = default;
  ~Reader();
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  // `expected_kind` 0 accepts any kind (index-info style inspection).
  bool Open(const std::string& path, std::uint32_t expected_kind,
            std::string* error);

  std::uint32_t kind() const { return kind_; }
  std::uint32_t version() const { return version_; }
  const std::vector<ChunkInfo>& chunks() const { return chunks_; }

  // Reads chunk `index`'s payload and verifies its CRC32.
  bool ReadChunk(std::size_t index, std::vector<std::uint8_t>* payload,
                 std::string* error) const;

 private:
  struct Impl;
  Impl* impl_ = nullptr;
  std::uint32_t kind_ = 0;
  std::uint32_t version_ = 0;
  std::vector<ChunkInfo> chunks_;
};

// Reads only the 20-byte header at `path` and validates it with the same
// checks as Reader::Open (magic, version, endianness); fills `kind` with its
// fourcc. No chunk is scanned, so a kind-dispatching opener can leave the
// single framing scan to the loader it dispatches to.
bool PeekKind(const std::string& path, std::uint32_t* kind,
              std::string* error);

// Moves a corrupt artifact aside to "<path>.corrupt" (replacing any
// previous quarantine) so cache loaders can rebuild from source without
// re-reading — or silently deleting — the bad bytes. Returns true when the
// file was moved and fills `quarantined_path` (may be null) with the new
// location.
bool QuarantineFile(const std::string& path, std::string* quarantined_path);

}  // namespace asteria::store
