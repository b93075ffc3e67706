// Seeded inputs for the perf workloads (bench/perf/README.md "Inputs").
//
// Everything a workload consumes is a pure function of --seed: firmware
// images in the style of `asteria-cli fw-gen` (vendor filler packages plus
// planted CVE-library software, symbol-stripped, packed), the query pools
// decompiled from them, and the training-corpus config. Development work
// uses kDevelopmentSeed; a claimed gain is confirmed on kHeldOutSeed.
//
// Only generated inputs are cached — packed images, keyed by seed, stream
// and count, digest-verified on every load. Program outputs (INDX shards,
// FENC caches, manifests, weights) are rebuilt by every run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "dataset/corpus.h"

namespace asteria::perf {

inline constexpr std::uint64_t kDevelopmentSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 1009;

// Independent image streams under one seed, so the images a workload
// indexes, queries with, and drops as arrivals never overlap.
enum class Stream : std::uint64_t {
  kFleet = 1,
  kQueries = 2,
  kArrivals = 3,
  kOffline = 4,
};

using ImageBlobs = std::vector<std::vector<std::uint8_t>>;

// Packs `count` firmware images; image i depends only on (seed, stream, i),
// so the set is identical for any thread count.
ImageBlobs GenerateImages(std::uint64_t seed, Stream stream, int count,
                          int threads);

// GenerateImages through the input cache under `cache_dir` (empty = no
// cache). `hit` reports whether a verified pack was reused.
ImageBlobs CachedImages(const std::string& cache_dir, std::uint64_t seed,
                        Stream stream, int count, int threads, bool* hit);

// Writes images as <dir>/img-NNNNNN.fw, the drop files ingest consumes.
bool WriteDropDir(const std::string& dir, const ImageBlobs& images,
                  std::string* error);

// Unpacks and decompiles images with the ingest filters (beta 4, ASTs of at
// least 5 nodes), in image order — query pools and index entries.
std::vector<core::FunctionFeature> DecompileImages(const ImageBlobs& images,
                                                   int threads);

// The fig6 default training corpus (bench_fig6_roc_mixed at --seed=1;
// 12 packages). It does not vary with the workload seed: at this scale the
// corpus size swings about 2x from seed to seed, which would swamp any
// change in per-pair cost. The workload seed orders the pairs instead.
dataset::CorpusConfig Fig6CorpusConfig(int packages);

}  // namespace asteria::perf
