// End-to-end vulnerability search pipeline (§V).
//
// GenerateFirmware builds vendor firmware images (NetGear / Schneider /
// Dlink), plants vulnerable or patched CVE functions into a subset, strips
// symbols, and packs and re-unpacks every image (the binwalk-analog path);
// BuildFirmwareCorpus also extracts every function. RunVulnSearch encodes
// the corpus with a trained Asteria model into a core::SearchIndex, answers
// the CVE library with one threshold sweep, and applies the paper's
// confirmation criteria:
//   A: the candidate comes from the same software and a vulnerable version
//   B: the similarity score is (numerically) 1
// Ground truth (which planted function is really the vulnerable one) is
// recorded at build time so confirmations can be validated automatically.
#pragma once

#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "decompiler/decompile.h"
#include "firmware/image.h"
#include "firmware/vulnlib.h"
#include "util/pipeline_report.h"

namespace asteria::firmware {

struct FirmwareCorpusConfig {
  int images = 30;
  std::uint64_t seed = 99;
  // Probability that an image ships a CVE-library software module at all;
  // when it does, this fraction is still on the vulnerable version.
  double software_probability = 0.8;
  double vulnerable_probability = 0.6;
  int filler_packages_per_image = 2;
  int beta = 4;
};

// Where one planted CVE function ended up in its stripped image.
struct PlantedFunction {
  std::size_t module = 0;  // index into the image's modules
  std::string symbol;      // stripped name: sub_xxx
  std::string cve;
  bool patched = false;
};

// One decompiled firmware function with build-time ground truth.
struct FirmwareFunction {
  int image = 0;                 // index into FirmwareCorpus::images
  int module_index = 0;          // index into that image's modules
  int function_index = 0;        // index into that module's functions
  std::string module;            // module (software) name
  std::string version;           // software version string
  std::string symbol;            // stripped name: sub_xxx
  core::FunctionFeature feature; // preprocessed AST + callee count
  // Ground truth: CVE id if this is the planted vulnerable function, empty
  // otherwise. `patched` marks the fixed variant of a CVE function.
  std::string truth_cve;
  bool patched = false;
};

struct FirmwareCorpus {
  std::vector<FirmwareImage> images;
  std::vector<std::vector<PlantedFunction>> planted;  // per image
  std::vector<FirmwareFunction> functions;
  int unpack_failures = 0;
  // The callee filter of the features; queries use it too (eq. (9)).
  int beta = decompiler::kDefaultBeta;
  // Per-function/image outcome accounting (stage "firmware-corpus").
  util::PipelineReport report;
};

// The generation step alone: images and their plants; `functions` is empty.
FirmwareCorpus GenerateFirmware(const FirmwareCorpusConfig& config);

// GenerateFirmware, then decompiler::ExtractModule over every module.
FirmwareCorpus BuildFirmwareCorpus(const FirmwareCorpusConfig& config);

// Per-CVE search outcome (one Table IV row).
struct CveSearchResult {
  std::string cve;
  std::string software;
  std::string function;
  int candidates = 0;       // scores above threshold
  int criteria_a = 0;       // same software + vulnerable version
  int criteria_b = 0;       // score == 1 (within 1e-9)
  int confirmed = 0;        // candidates that are truly the CVE function
  int false_positives = 0;  // candidates that are not
  std::vector<std::string> affected_models;
};

struct VulnSearchResult {
  std::vector<CveSearchResult> per_cve;
  int total_confirmed = 0;
  int total_candidates = 0;
  double threshold = 0.0;
  // Per-query/encoding outcome accounting (stage "vuln-search"): failed CVE
  // query compilations and corpus functions excluded from scoring are
  // counted here, never silently dropped.
  util::PipelineReport report;
};

// Reference ISA used to compile the CVE library for querying.
inline constexpr int kQueryIsa = 0;  // x86

// The query recipe: decompiles `module`'s function `function` into an LCRS
// feature named `function`, or returns false with `why` = "no function
// '<function>'".
bool BuildQueryFeature(const binary::BinModule& module,
                       const std::string& function, int beta,
                       core::FunctionFeature* feature, std::string* why);

// Compiles `spec`'s vulnerable source for `isa`, then BuildQueryFeature on
// spec.function. A failure reason starts with the CVE id.
bool BuildCveQuery(const VulnSpec& spec, binary::Isa isa, int beta,
                   core::FunctionFeature* feature, std::string* why);

// One VulnLibrary() query answered by SearchVulnLibrary.
struct CveHits {
  std::string failure;                // why the query was not built
  std::vector<core::SearchHit> hits;  // scores >= threshold, descending
};

// The vuln scorer: every VulnLibrary() query, built on kQueryIsa, answered
// by one AboveThresholdBatch sweep of `index`, in VulnLibrary() order.
std::vector<CveHits> SearchVulnLibrary(const core::SearchIndex& index,
                                       double threshold, int beta);

// Offline phase: one encoding per corpus function, in corpus order. A
// function whose encoding fails (throws, non-finite values, or the
// firmware.encode failpoint) keeps its slot as an empty 0x0 placeholder so
// positional alignment with the corpus survives; the failure is counted in
// `report` (stage "firmware-encode") when non-null.
std::vector<nn::Matrix> EncodeFirmwareCorpus(
    const core::AsteriaModel& model, const FirmwareCorpus& corpus,
    util::PipelineReport* report = nullptr);

// Persist/reload the offline encodings (kKindEncodings container,
// docs/FORMATS.md). The snapshot is fingerprinted against the model
// weights; Load additionally requires the entry count to match the corpus
// so a cache from a different corpus build fails loudly.
bool SaveFirmwareEncodings(const std::vector<nn::Matrix>& encodings,
                           const core::AsteriaModel& model,
                           const std::string& path, std::string* error);
bool LoadFirmwareEncodings(std::vector<nn::Matrix>* encodings,
                           const core::AsteriaModel& model,
                           std::size_t expected_count, const std::string& path,
                           std::string* error);

// Runs the search with a trained model at the given score threshold,
// reusing the encodings at `cache_path` when they are valid for this
// (model, corpus) and otherwise encoding the corpus and refreshing the
// cache (when a path is set).
VulnSearchResult RunVulnSearch(const core::AsteriaModel& model,
                               const FirmwareCorpus& corpus, double threshold,
                               const std::string& cache_path = "");

// Same, with precomputed offline encodings (corpus order).
VulnSearchResult RunVulnSearch(const core::AsteriaModel& model,
                               const FirmwareCorpus& corpus,
                               const std::vector<nn::Matrix>& encodings,
                               double threshold);

}  // namespace asteria::firmware
