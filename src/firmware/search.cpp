#include "firmware/search.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "compiler/compile.h"
#include "dataset/generator.h"
#include "decompiler/decompile.h"
#include "minic/parser.h"
#include "minic/sema.h"
#include "store/container.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/metrics.h"

namespace asteria::firmware {

namespace {

// Injects a per-function encoding failure into EncodeFirmwareCorpus
// (isolation testing: the slot degrades to a placeholder, search continues).
util::Failpoint fp_firmware_encode("firmware.encode");

util::Counter c_fw_cache_hit("firmware.cache_hit");
util::Counter c_fw_cache_miss("firmware.cache_miss");
util::Counter c_fw_quarantined("firmware.cache_quarantined");
util::Counter c_fw_confirmed("firmware.confirmed");
// Candidates above threshold per CVE query — deterministic per seed/model.
util::Histogram h_fw_candidates("firmware.candidates");

struct VendorSpec {
  const char* vendor;
  std::vector<const char*> models;
};

const std::vector<VendorSpec>& Vendors() {
  static const std::vector<VendorSpec> kVendors = {
      {"NetGear", {"R7000", "D7000", "R8000", "R7500", "D7800", "R7800",
                   "R6250", "R7900", "R6700", "FVS318Gv2"}},
      {"Schneider", {"BMX-NOE", "TM221", "PM5560"}},
      {"Dlink", {"DSN-6200", "DIR-865L", "DCS-930L"}},
  };
  return kVendors;
}

binary::BinModule CompileSource(const std::string& source,
                                const std::string& name, binary::Isa isa) {
  minic::Program program;
  std::string error;
  if (!minic::Parse(source, &program, &error) ||
      !minic::Check(program, &error)) {
    ASTERIA_LOG(Error) << "vuln-library source broken (" << name
                       << "): " << error;
    return binary::BinModule{};
  }
  auto compiled = compiler::CompileProgram(program, isa, name);
  if (!compiled.ok) {
    ASTERIA_LOG(Error) << "vuln-library compile failed (" << name
                       << "): " << compiled.error;
    return binary::BinModule{};
  }
  return std::move(compiled.module);
}

}  // namespace

FirmwareCorpus GenerateFirmware(const FirmwareCorpusConfig& config) {
  FirmwareCorpus corpus;
  corpus.report.stage = "firmware-corpus";
  util::Rng rng(config.seed);
  dataset::GeneratorConfig generator_config;
  generator_config.min_functions = 3;
  generator_config.max_functions = 6;

  for (int img = 0; img < config.images; ++img) {
    const VendorSpec& vendor = Vendors()[rng.NextWeighted({5.0, 1.5, 2.5})];
    FirmwareImage image;
    image.vendor = vendor.vendor;
    image.model = vendor.models[rng.NextBounded(vendor.models.size())];
    image.version = "v" + std::to_string(rng.NextInt(1, 3)) + "." +
                    std::to_string(rng.NextInt(0, 9));
    const binary::Isa isa =
        static_cast<binary::Isa>(rng.NextWeighted({1.0, 0.2, 5.0, 1.2}));

    // Filler packages (vendor-specific code). Vendors ship stripped
    // binaries.
    for (int p = 0; p < config.filler_packages_per_image; ++p) {
      minic::Program program = dataset::GenerateProgram(generator_config, rng);
      std::string error;
      if (!minic::Check(program, &error)) continue;
      auto compiled = compiler::CompileProgram(
          program, isa, "vendor_" + std::to_string(img) + "_" + std::to_string(p));
      if (!compiled.ok) continue;
      compiled.module.StripSymbols();
      image.modules.push_back(std::move(compiled.module));
    }

    // Possibly ship CVE-library software, remembering which stripped name
    // holds each CVE function.
    std::vector<PlantedFunction> truths;
    if (rng.NextBool(config.software_probability)) {
      // Ship 1-3 distinct softwares.
      const int count = static_cast<int>(rng.NextInt(1, 3));
      std::set<std::size_t> chosen;
      for (int k = 0; k < count; ++k) {
        chosen.insert(rng.NextBounded(VulnLibrary().size()));
      }
      for (std::size_t v : chosen) {
        const VulnSpec& spec = VulnLibrary()[v];
        const bool vulnerable = rng.NextBool(config.vulnerable_probability);
        binary::BinModule module = CompileSource(
            vulnerable ? spec.vulnerable_source : spec.patched_source,
            spec.software + "-" +
                (vulnerable ? spec.vulnerable_version : spec.patched_version),
            isa);
        if (module.functions.empty()) continue;
        const int fn = module.FindFunction(spec.function);
        module.StripSymbols();
        if (fn >= 0) {
          truths.push_back({image.modules.size(),
                            module.functions[static_cast<std::size_t>(fn)].name,
                            spec.cve, !vulnerable});
        }
        image.modules.push_back(std::move(module));
      }
    }

    // Pack + unpack round trip (the binwalk-analog path).
    const std::vector<std::uint8_t> blob = Pack(image);
    auto unpacked = Unpack(blob);
    if (!unpacked.has_value()) {
      ++corpus.unpack_failures;
      corpus.report.AddFailed("image " + std::to_string(img) +
                              ": unpack failed");
      continue;
    }
    corpus.images.push_back(std::move(*unpacked));
    corpus.planted.push_back(std::move(truths));
  }
  return corpus;
}

FirmwareCorpus BuildFirmwareCorpus(const FirmwareCorpusConfig& config) {
  FirmwareCorpus corpus = GenerateFirmware(config);
  corpus.beta = config.beta;
  for (std::size_t img = 0; img < corpus.images.size(); ++img) {
    const FirmwareImage& image = corpus.images[img];
    for (std::size_t m = 0; m < image.modules.size(); ++m) {
      const binary::BinModule& module = image.modules[m];
      for (decompiler::ExtractedFunction& extracted : decompiler::ExtractModule(
               module, config.beta, decompiler::kMinAstSize, &corpus.report)) {
        const decompiler::DecompiledFunction& df = extracted.decompiled;
        FirmwareFunction entry;
        entry.image = static_cast<int>(img);
        entry.module_index = static_cast<int>(m);
        entry.function_index = extracted.index;
        entry.module = module.name;
        entry.version = image.version;
        entry.symbol = df.name;
        entry.feature = {module.name + "::" + df.name,
                         std::move(extracted.lcrs), df.callee_count};
        for (const PlantedFunction& truth : corpus.planted[img]) {
          if (truth.module == m && truth.symbol == df.name) {
            entry.truth_cve = truth.cve;
            entry.patched = truth.patched;
          }
        }
        corpus.functions.push_back(std::move(entry));
      }
    }
  }
  return corpus;
}

std::vector<nn::Matrix> EncodeFirmwareCorpus(const core::AsteriaModel& model,
                                             const FirmwareCorpus& corpus,
                                             util::PipelineReport* report) {
  ASTERIA_SPAN("firmware-encode");
  core::IsolatedEncodings encoded = core::EncodeIsolated(
      model, corpus.functions.size(),
      [&](std::size_t i) -> const core::FunctionFeature& {
        return corpus.functions[i].feature;
      },
      /*threads=*/1, fp_firmware_encode);
  encoded.report.stage = "firmware-encode";
  util::PublishPipelineReport(encoded.report);
  if (report != nullptr) report->Merge(encoded.report);
  return std::move(encoded.encodings);
}

namespace {

constexpr std::uint32_t kTagEncodingsMeta = store::FourCc('E', 'M', 'E', 'T');
constexpr std::uint32_t kTagEncodingsData = store::FourCc('E', 'V', 'E', 'C');
constexpr std::uint32_t kEncodingsSchemaVersion = 1;

}  // namespace

bool SaveFirmwareEncodings(const std::vector<nn::Matrix>& encodings,
                           const core::AsteriaModel& model,
                           const std::string& path, std::string* error) {
  store::Writer writer;
  if (!writer.Open(path, store::kKindEncodings, error)) return false;
  store::ChunkBuilder meta;
  meta.PutU32(kEncodingsSchemaVersion);
  meta.PutU32(model.WeightsFingerprint());
  meta.PutU64(encodings.size());
  if (!writer.WriteChunk(kTagEncodingsMeta, meta, error)) return false;
  store::ChunkBuilder data;
  for (const nn::Matrix& encoding : encodings) {
    data.PutU32(static_cast<std::uint32_t>(encoding.rows()));
    data.PutU32(static_cast<std::uint32_t>(encoding.cols()));
    data.PutF64Array(encoding.data(), encoding.size());
  }
  if (!writer.WriteChunk(kTagEncodingsData, data, error)) return false;
  return writer.Finish(error);
}

bool LoadFirmwareEncodings(std::vector<nn::Matrix>* encodings,
                           const core::AsteriaModel& model,
                           std::size_t expected_count, const std::string& path,
                           std::string* error) {
  store::Reader reader;
  if (!reader.Open(path, store::kKindEncodings, error)) return false;
  std::uint64_t declared_count = 0;
  bool saw_meta = false;
  std::vector<nn::Matrix> loaded;
  std::vector<std::uint8_t> payload;
  for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
    const store::ChunkInfo& info = reader.chunks()[i];
    if (info.tag != kTagEncodingsMeta && info.tag != kTagEncodingsData) {
      continue;
    }
    if (!reader.ReadChunk(i, &payload, error)) return false;
    store::ChunkParser parser(payload);
    if (info.tag == kTagEncodingsMeta) {
      std::uint32_t schema = 0, fingerprint = 0;
      if (!parser.GetU32(&schema, error) ||
          !parser.GetU32(&fingerprint, error) ||
          !parser.GetU64(&declared_count, error)) {
        return false;
      }
      if (schema != kEncodingsSchemaVersion) {
        *error = path + ": unsupported encodings schema version " +
                 std::to_string(schema);
        return false;
      }
      if (fingerprint != model.WeightsFingerprint()) {
        *error = path + ": encodings were produced by different model "
                        "weights (fingerprint mismatch)";
        return false;
      }
      if (declared_count != expected_count) {
        *error = path + ": cache holds " + std::to_string(declared_count) +
                 " encodings but the corpus has " +
                 std::to_string(expected_count) + " functions — stale cache";
        return false;
      }
      saw_meta = true;
      continue;
    }
    if (!saw_meta) {
      *error = path + ": EVEC chunk before EMET metadata";
      return false;
    }
    while (!parser.AtEnd()) {
      std::uint32_t rows = 0, cols = 0;
      if (!parser.GetU32(&rows, error) || !parser.GetU32(&cols, error)) {
        return false;
      }
      const std::uint64_t elements =
          static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
      if (elements * sizeof(double) > parser.remaining()) {
        *error = path + ": encoding " + std::to_string(loaded.size()) +
                 " declares " + std::to_string(rows) + "x" +
                 std::to_string(cols) + " but the chunk is too small";
        return false;
      }
      // 0x0 entries are legitimate placeholders for functions whose
      // encoding failed; anything else must match what this model produces
      // and hold finite values.
      const int hidden_dim = model.config().siamese.encoder.hidden_dim;
      if (elements != 0 &&
          (static_cast<int>(rows) != hidden_dim || cols != 1)) {
        *error = path + ": encoding " + std::to_string(loaded.size()) +
                 " has shape " + std::to_string(rows) + "x" +
                 std::to_string(cols) + " but this model produces " +
                 std::to_string(hidden_dim) + "x1 encodings";
        return false;
      }
      nn::Matrix m(static_cast<int>(rows), static_cast<int>(cols));
      if (!parser.GetF64Array(m.data(), m.size(), error)) return false;
      if (!core::AllFinite(m.data(), m.size())) {
        *error = path + ": encoding " + std::to_string(loaded.size()) +
                 " contains non-finite values (NaN/Inf) — corrupted cache";
        return false;
      }
      loaded.push_back(std::move(m));
    }
  }
  if (!saw_meta) {
    *error = path + ": missing EMET metadata chunk";
    return false;
  }
  if (loaded.size() != declared_count) {
    *error = path + ": EMET declares " + std::to_string(declared_count) +
             " encodings but " + std::to_string(loaded.size()) +
             " were stored";
    return false;
  }
  *encodings = std::move(loaded);
  return true;
}

bool BuildQueryFeature(const binary::BinModule& module,
                       const std::string& function, int beta,
                       core::FunctionFeature* feature, std::string* why) {
  const int fn = module.FindFunction(function);
  if (fn < 0) {
    *why = "no function '" + function + "'";
    return false;
  }
  const decompiler::DecompiledFunction query =
      decompiler::DecompileFunction(module, fn, beta);
  *feature = {function, ast::ToLeftChildRightSibling(query.tree),
              query.callee_count};
  return true;
}

bool BuildCveQuery(const VulnSpec& spec, binary::Isa isa, int beta,
                   core::FunctionFeature* feature, std::string* why) {
  const binary::BinModule module =
      CompileSource(spec.vulnerable_source, spec.software, isa);
  if (BuildQueryFeature(module, spec.function, beta, feature, why)) {
    return true;
  }
  *why = spec.cve + ": " + *why + " in the compiled query source";
  return false;
}

std::vector<CveHits> SearchVulnLibrary(const core::SearchIndex& index,
                                       double threshold, int beta) {
  const std::vector<VulnSpec>& library = VulnLibrary();
  std::vector<CveHits> found(library.size());
  std::vector<core::FunctionFeature> queries(library.size());
  std::vector<const core::FunctionFeature*> built;
  for (std::size_t q = 0; q < library.size(); ++q) {
    if (BuildCveQuery(library[q], static_cast<binary::Isa>(kQueryIsa), beta,
                      &queries[q], &found[q].failure)) {
      built.push_back(&queries[q]);
    }
  }
  if (index.size() == 0 || built.empty()) return found;
  std::vector<std::vector<core::SearchHit>> hits = index.AboveThresholdBatch(
      built, std::vector<double>(built.size(), threshold));
  for (std::size_t q = 0, b = 0; q < library.size(); ++q) {
    if (found[q].failure.empty()) found[q].hits = std::move(hits[b++]);
  }
  return found;
}

VulnSearchResult RunVulnSearch(const core::AsteriaModel& model,
                               const FirmwareCorpus& corpus, double threshold,
                               const std::string& cache_path) {
  std::vector<nn::Matrix> encodings;
  if (!cache_path.empty()) {
    std::string error;
    if (LoadFirmwareEncodings(&encodings, model, corpus.functions.size(),
                              cache_path, &error)) {
      c_fw_cache_hit.Increment();
      ASTERIA_LOG(Info) << "firmware encodings cache hit: " << cache_path;
      return RunVulnSearch(model, corpus, encodings, threshold);
    }
    c_fw_cache_miss.Increment();
    ASTERIA_LOG(Info) << "firmware encodings cache miss (" << error
                      << "); re-encoding";
    // Move a present-but-unloadable cache aside before writing a fresh one.
    if (std::FILE* f = std::fopen(cache_path.c_str(), "rb")) {
      std::fclose(f);
      std::string quarantined;
      if (store::QuarantineFile(cache_path, &quarantined)) {
        c_fw_quarantined.Increment();
        ASTERIA_LOG(Warn) << "quarantined corrupt encodings cache to "
                          << quarantined;
      }
    }
  }
  // Offline phase: encode the whole firmware corpus once.
  util::PipelineReport encode_report;
  encodings = EncodeFirmwareCorpus(model, corpus, &encode_report);
  std::string error;
  if (!cache_path.empty() &&
      !SaveFirmwareEncodings(encodings, model, cache_path, &error)) {
    ASTERIA_LOG(Warn) << "firmware encodings cache write failed: " << error;
  }
  VulnSearchResult result = RunVulnSearch(model, corpus, encodings, threshold);
  result.report.Merge(encode_report);
  return result;
}

VulnSearchResult RunVulnSearch(const core::AsteriaModel& model,
                               const FirmwareCorpus& corpus,
                               const std::vector<nn::Matrix>& encodings,
                               double threshold) {
  if (encodings.size() != corpus.functions.size()) {
    ASTERIA_LOG(Error) << "RunVulnSearch: " << encodings.size()
                       << " encodings for " << corpus.functions.size()
                       << " corpus functions; re-encoding";
    return RunVulnSearch(model, corpus, threshold);
  }
  VulnSearchResult result;
  result.threshold = threshold;
  result.report.stage = "vuln-search";
  // Functions whose offline encoding failed sit in their slot as empty 0x0
  // placeholders; they stay out of the index and are counted once.
  core::SearchIndex index(model);
  std::vector<std::size_t> slot_of_entry;
  bool first_missing = true;
  for (std::size_t i = 0; i < encodings.size(); ++i) {
    const core::FunctionFeature& feature = corpus.functions[i].feature;
    if (encodings[i].size() == 0 ||
        index.AddEncoded(feature.name, encodings[i], feature.callee_count) < 0) {
      result.report.AddSkipped(
          first_missing ? "function without encoding excluded from scoring"
                        : "");
      first_missing = false;
      continue;
    }
    slot_of_entry.push_back(i);
  }

  const std::vector<CveHits> found =
      SearchVulnLibrary(index, threshold, corpus.beta);
  for (std::size_t q = 0; q < found.size(); ++q) {
    const VulnSpec& spec = VulnLibrary()[q];
    CveSearchResult row;
    row.cve = spec.cve;
    row.software = spec.software;
    row.function = spec.function;
    if (!found[q].failure.empty()) {
      result.report.AddFailed(found[q].failure + " — CVE row is empty");
      result.per_cve.push_back(std::move(row));
      continue;
    }
    result.report.AddOk();
    std::set<std::string> models_hit;
    for (const core::SearchHit& hit : found[q].hits) {
      const FirmwareFunction& fn =
          corpus.functions[slot_of_entry[static_cast<std::size_t>(hit.index)]];
      ++row.candidates;
      const bool is_vulnerable = fn.truth_cve == spec.cve && !fn.patched;
      // Criterion A: same software, vulnerable version. Module names encode
      // "software-version"; patched plants carry the fixed version string.
      const std::string prefix = spec.software + "-";
      const bool same_software = fn.module.rfind("sub_", 0) != 0 &&
                                 fn.module.rfind(prefix, 0) == 0;
      const bool version_vulnerable =
          fn.module == prefix + spec.vulnerable_version;
      if (same_software && version_vulnerable) ++row.criteria_a;
      if (hit.score > 1.0 - 1e-9) ++row.criteria_b;
      if (is_vulnerable) {
        ++row.confirmed;
        models_hit.insert(corpus.images[static_cast<std::size_t>(fn.image)].model);
      } else {
        ++row.false_positives;
      }
    }
    row.affected_models.assign(models_hit.begin(), models_hit.end());
    c_fw_confirmed.Add(static_cast<std::uint64_t>(row.confirmed));
    h_fw_candidates.Observe(static_cast<std::uint64_t>(row.candidates));
    result.total_confirmed += row.confirmed;
    result.total_candidates += row.candidates;
    result.per_cve.push_back(std::move(row));
  }
  util::PublishPipelineReport(result.report);
  return result;
}

}  // namespace asteria::firmware
