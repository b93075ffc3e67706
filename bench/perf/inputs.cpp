#include "inputs.h"

#include <dirent.h>
#include <sys/stat.h>
#include <utime.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>

#include "compiler/compile.h"
#include "dataset/generator.h"
#include "firmware/image.h"
#include "firmware/vulnlib.h"
#include "harness.h"
#include "ingest/ingest.h"
#include "minic/parser.h"
#include "minic/sema.h"
#include "store/manifest.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace asteria::perf {
namespace {

// The fw-gen vendor mix (firmware::BuildFirmwareCorpus): NetGear-heavy,
// with Schneider and Dlink images.
struct Vendor {
  const char* name;
  std::vector<const char*> models;
};

const std::vector<Vendor>& Vendors() {
  static const std::vector<Vendor> kVendors = {
      {"NetGear", {"R7000", "D7000", "R8000", "R7500", "D7800", "R7800",
                   "R6250", "R7900", "R6700", "FVS318Gv2"}},
      {"Schneider", {"BMX-NOE", "TM221", "PM5560"}},
      {"Dlink", {"DSN-6200", "DIR-865L", "DCS-930L"}},
  };
  return kVendors;
}

// CVE-library modules compiled once per (spec, variant, ISA); images copy
// them. Empty module = the source failed to build (never planted).
using VulnModules = std::vector<binary::BinModule>;

std::size_t VulnSlot(std::size_t spec, bool vulnerable, int isa) {
  return (spec * 2 + (vulnerable ? 1 : 0)) * binary::kNumIsas +
         static_cast<std::size_t>(isa);
}

VulnModules CompileVulnModules() {
  const std::vector<firmware::VulnSpec>& library = firmware::VulnLibrary();
  VulnModules modules(library.size() * 2 * binary::kNumIsas);
  for (std::size_t s = 0; s < library.size(); ++s) {
    for (int variant = 0; variant < 2; ++variant) {
      const bool vulnerable = variant == 1;
      const firmware::VulnSpec& spec = library[s];
      minic::Program program;
      std::string error;
      if (!minic::Parse(vulnerable ? spec.vulnerable_source
                                   : spec.patched_source,
                        &program, &error) ||
          !minic::Check(program, &error)) {
        continue;
      }
      const std::string name =
          spec.software + "-" +
          (vulnerable ? spec.vulnerable_version : spec.patched_version);
      for (int isa = 0; isa < binary::kNumIsas; ++isa) {
        auto compiled = compiler::CompileProgram(
            program, static_cast<binary::Isa>(isa), name);
        if (compiled.ok) {
          modules[VulnSlot(s, vulnerable, isa)] = std::move(compiled.module);
        }
      }
    }
  }
  return modules;
}

std::vector<std::uint8_t> MakeImage(std::uint64_t seed, Stream stream,
                                    int index, const VulnModules& vuln) {
  util::Rng rng(util::Rng::DeriveSeed(
      util::Rng::DeriveSeed(seed, static_cast<std::uint64_t>(stream)),
      static_cast<std::uint64_t>(index)));
  dataset::GeneratorConfig generator;
  generator.min_functions = 3;
  generator.max_functions = 6;

  const Vendor& vendor = Vendors()[rng.NextWeighted({5.0, 1.5, 2.5})];
  firmware::FirmwareImage image;
  image.vendor = vendor.name;
  image.model = vendor.models[rng.NextBounded(vendor.models.size())];
  image.version = "v" + std::to_string(rng.NextInt(1, 3)) + "." +
                  std::to_string(rng.NextInt(0, 9));
  const int isa = static_cast<int>(rng.NextWeighted({1.0, 0.2, 5.0, 1.2}));

  for (int p = 0; p < 2; ++p) {
    minic::Program program = dataset::GenerateProgram(generator, rng);
    std::string error;
    if (!minic::Check(program, &error)) continue;
    auto compiled = compiler::CompileProgram(
        program, static_cast<binary::Isa>(isa),
        "vendor_" + std::to_string(index) + "_" + std::to_string(p));
    if (compiled.ok) image.modules.push_back(std::move(compiled.module));
  }
  if (rng.NextBool(0.8)) {
    const int count = static_cast<int>(rng.NextInt(1, 3));
    std::set<std::size_t> chosen;
    for (int k = 0; k < count; ++k) {
      chosen.insert(rng.NextBounded(firmware::VulnLibrary().size()));
    }
    for (std::size_t spec : chosen) {
      const bool vulnerable = rng.NextBool(0.6);
      const binary::BinModule& module = vuln[VulnSlot(spec, vulnerable, isa)];
      if (!module.functions.empty()) image.modules.push_back(module);
    }
  }
  for (binary::BinModule& module : image.modules) module.StripSymbols();
  return firmware::Pack(image);
}

// -- Cache file: "PFIM" u32 version, u64 count, (u64 size, bytes)*, then a
// u64 ContentDigest64 of everything before it.

constexpr char kPackMagic[4] = {'P', 'F', 'I', 'M'};
constexpr std::uint32_t kPackVersion = 1;
constexpr std::size_t kMaxCachedPacks = 8;

void PutU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

bool GetU64(const std::vector<std::uint8_t>& in, std::size_t* pos,
            std::size_t limit, std::uint64_t* v) {
  if (limit - *pos < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(in[*pos + static_cast<std::size_t>(i)])
          << (8 * i);
  }
  *pos += 8;
  return true;
}

std::vector<std::uint8_t> EncodePack(const ImageBlobs& images) {
  std::vector<std::uint8_t> out(kPackMagic, kPackMagic + 4);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(kPackVersion >> (8 * i)));
  }
  PutU64(&out, images.size());
  for (const auto& blob : images) {
    PutU64(&out, blob.size());
    out.insert(out.end(), blob.begin(), blob.end());
  }
  PutU64(&out, store::ContentDigest64(out.data(), out.size()));
  return out;
}

std::optional<ImageBlobs> DecodePack(const std::vector<std::uint8_t>& bytes,
                                     std::size_t expected_count) {
  if (bytes.size() < 24 || std::memcmp(bytes.data(), kPackMagic, 4) != 0) {
    return std::nullopt;
  }
  const std::size_t body = bytes.size() - 8;
  std::size_t pos = body;
  std::uint64_t digest = 0;
  if (!GetU64(bytes, &pos, bytes.size(), &digest) ||
      digest != store::ContentDigest64(bytes.data(), body)) {
    return std::nullopt;
  }
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(bytes[4 + static_cast<std::size_t>(i)])
               << (8 * i);
  }
  pos = 8;
  std::uint64_t count = 0;
  if (version != kPackVersion || !GetU64(bytes, &pos, body, &count) ||
      count != expected_count) {
    return std::nullopt;
  }
  ImageBlobs images;
  images.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t size = 0;
    if (!GetU64(bytes, &pos, body, &size) || body - pos < size) {
      return std::nullopt;
    }
    images.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                        bytes.begin() + static_cast<std::ptrdiff_t>(pos + size));
    pos += size;
  }
  if (pos != body) return std::nullopt;
  return images;
}

// Keeps the cache to the most recently used packs.
void PruneCache(const std::string& cache_dir) {
  std::vector<std::pair<std::int64_t, std::string>> packs;
  if (DIR* dir = ::opendir(cache_dir.c_str())) {
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name.size() < 5 || name.compare(name.size() - 5, 5, ".pack") != 0) {
        continue;
      }
      struct stat st {};
      const std::string path = cache_dir + "/" + name;
      if (::stat(path.c_str(), &st) == 0) {
        packs.emplace_back(static_cast<std::int64_t>(st.st_mtime), path);
      }
    }
    ::closedir(dir);
  }
  if (packs.size() <= kMaxCachedPacks) return;
  std::sort(packs.rbegin(), packs.rend());
  for (std::size_t i = kMaxCachedPacks; i < packs.size(); ++i) {
    std::remove(packs[i].second.c_str());
  }
}

}  // namespace

ImageBlobs GenerateImages(std::uint64_t seed, Stream stream, int count,
                          int threads) {
  const VulnModules vuln = CompileVulnModules();
  ImageBlobs images(static_cast<std::size_t>(count));
  util::ParallelFor(count, threads, [&](std::int64_t i) {
    images[static_cast<std::size_t>(i)] =
        MakeImage(seed, stream, static_cast<int>(i), vuln);
  });
  return images;
}

ImageBlobs CachedImages(const std::string& cache_dir, std::uint64_t seed,
                        Stream stream, int count, int threads, bool* hit) {
  *hit = false;
  if (cache_dir.empty()) return GenerateImages(seed, stream, count, threads);
  const std::string path = cache_dir + "/img-s" + std::to_string(seed) +
                           "-t" +
                           std::to_string(static_cast<std::uint64_t>(stream)) +
                           "-n" + std::to_string(count) + ".pack";
  std::vector<std::uint8_t> bytes;
  if (ReadFile(path, &bytes)) {
    if (std::optional<ImageBlobs> images =
            DecodePack(bytes, static_cast<std::size_t>(count))) {
      ::utime(path.c_str(), nullptr);
      *hit = true;
      return std::move(*images);
    }
  }
  ImageBlobs images = GenerateImages(seed, stream, count, threads);
  MakeDirs(cache_dir);
  const std::vector<std::uint8_t> pack = EncodePack(images);
  const std::string tmp = path + ".tmp";
  if (std::FILE* f = std::fopen(tmp.c_str(), "wb")) {
    const bool ok = std::fwrite(pack.data(), 1, pack.size(), f) == pack.size();
    if (std::fclose(f) == 0 && ok) {
      std::rename(tmp.c_str(), path.c_str());
    } else {
      std::remove(tmp.c_str());
    }
  }
  PruneCache(cache_dir);
  return images;
}

bool WriteDropDir(const std::string& dir, const ImageBlobs& images,
                  std::string* error) {
  if (!MakeDirs(dir)) {
    *error = dir + ": cannot create";
    return false;
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "/img-%06zu.fw", i);
    const std::string path = dir + name;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const bool ok = f != nullptr &&
                    std::fwrite(images[i].data(), 1, images[i].size(), f) ==
                        images[i].size();
    if (f != nullptr && std::fclose(f) != 0) {
      *error = path + ": write failed";
      return false;
    }
    if (!ok) {
      *error = path + ": write failed";
      return false;
    }
  }
  return true;
}

std::vector<core::FunctionFeature> DecompileImages(const ImageBlobs& images,
                                                   int threads) {
  std::vector<std::vector<core::FunctionFeature>> per_image(images.size());
  util::ParallelFor(static_cast<std::int64_t>(images.size()), threads,
                    [&](std::int64_t i) {
                      const std::size_t slot = static_cast<std::size_t>(i);
                      auto image = firmware::Unpack(images[slot]);
                      if (!image.has_value()) return;
                      per_image[slot] = ingest::IngestService::DecompileImage(
                          *image, /*beta=*/4, /*min_ast_size=*/5, nullptr);
                    });
  std::vector<core::FunctionFeature> features;
  for (auto& batch : per_image) {
    for (auto& feature : batch) features.push_back(std::move(feature));
  }
  return features;
}

dataset::CorpusConfig Fig6CorpusConfig(int packages) {
  // bench/common.cpp BuildSetup's seed derivation at --seed=1.
  dataset::CorpusConfig config;
  config.packages = packages;
  config.seed = 1 * 1000003 + 17;
  return config;
}

}  // namespace asteria::perf
