// Shard manifest (MANI) — the root of a sharded index (docs/FORMATS.md).
//
// A sharded index is a directory holding one immutable INDX snapshot per
// ingested batch ("shard") plus a single manifest file naming the shards
// in query order. Readers concatenate the shard entries in manifest order,
// so TopK over a sharded index is bitwise identical to a monolithic index
// built from the same entries (core::SearchIndex::OpenSharded).
//
// The manifest is the only mutable object: every ingest/compaction writes
// the shard files first, then publishes a new manifest via the Writer's
// atomic temp-file + rename. A crash at any point before the rename leaves
// the previously published manifest — and every shard it names — bitwise
// intact, which is the crash-publish contract proved by
// tests/ingest_test.cpp against the ingest.* failpoints.
//
// Besides the shard list, the manifest records:
//   - the model weights fingerprint (all shards must come from one model);
//   - a monotonically increasing publish sequence number;
//   - `searched_seq`, the delta-vuln-search high-water mark: shards with
//     created_seq > searched_seq have never been scanned for CVEs;
//   - per-shard source digests (ContentDigest64 of each ingested firmware
//     blob) so re-dropped images dedup instead of re-encoding.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace asteria::store {

// 64-bit FNV-1a over a byte blob — the content digest used to dedup
// ingested firmware images. Not cryptographic; collision just means one
// redundant re-encode, never corruption.
std::uint64_t ContentDigest64(const void* data, std::size_t size);

// Canonical manifest file name inside a sharded-index directory.
inline constexpr char kManifestFileName[] = "manifest.mani";

struct ShardRecord {
  std::string file;              // shard path, relative to the manifest dir
  std::uint64_t entries = 0;     // encoded functions in the shard
  std::uint64_t bytes = 0;       // shard file size when published
  std::uint64_t created_seq = 0; // publish sequence that created the data
  std::vector<std::uint64_t> sources;  // digests of the folded-in images

  bool operator==(const ShardRecord&) const = default;
};

struct ShardManifest {
  std::uint32_t model_fingerprint = 0;
  std::uint64_t sequence = 0;      // bumped by every publish
  std::uint64_t searched_seq = 0;  // delta vuln-search high-water mark
  std::vector<ShardRecord> shards; // query order

  bool HasSource(std::uint64_t digest) const;
  std::uint64_t TotalEntries() const;
  // Largest created_seq over all shards (0 when empty) — what
  // searched_seq advances to after a delta vuln search.
  std::uint64_t MaxCreatedSeq() const;
};

// Atomically publishes `manifest` at `path` (temp file + rename; see the
// Writer crash-safety contract in container.h).
bool SaveManifest(const ShardManifest& manifest, const std::string& path,
                  std::string* error);

// Loads and validates a manifest; `*manifest` is untouched on failure.
bool LoadManifest(ShardManifest* manifest, const std::string& path,
                  std::string* error);

// Directory part of `path` ("." when it has none). Shard files are stored
// relative to the manifest's directory so the whole index dir can move.
std::string DirOf(const std::string& path);

}  // namespace asteria::store
