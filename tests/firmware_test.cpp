// Firmware tests: pack/unpack round trip, corruption detection, vuln
// library validity, corpus construction with ground truth, the query
// recipe, an end-to-end search smoke test with a lightly trained model, and
// the SearchIndex-backed Table IV search against its scalar oracle.
#include <gtest/gtest.h>

#include "compiler/compile.h"
#include "decompiler/decompile.h"
#include "firmware/image.h"
#include "firmware/search.h"
#include "firmware/vulnlib.h"
#include "binary/vm.h"
#include "minic/interp.h"
#include "minic/parser.h"
#include "minic/sema.h"
#include "util/failpoint.h"
#include "vuln_search_oracle.h"

namespace asteria::firmware {
namespace {

binary::BinModule SmallModule() {
  minic::Program program;
  std::string error;
  EXPECT_TRUE(minic::Parse(
      "int f(int a) { return a * 2 + 1; } int g(int a) { return f(a) - 3; }",
      &program, &error))
      << error;
  EXPECT_TRUE(minic::Check(program, &error)) << error;
  auto compiled =
      compiler::CompileProgram(program, binary::Isa::kArm, "libsmall");
  EXPECT_TRUE(compiled.ok);
  return std::move(compiled.module);
}

TEST(Image, PackUnpackRoundTrip) {
  FirmwareImage image;
  image.vendor = "NetGear";
  image.model = "R7000";
  image.version = "v1.3";
  image.modules.push_back(SmallModule());
  const auto blob = Pack(image);
  auto unpacked = Unpack(blob);
  ASSERT_TRUE(unpacked.has_value());
  EXPECT_EQ(unpacked->vendor, "NetGear");
  EXPECT_EQ(unpacked->model, "R7000");
  EXPECT_EQ(unpacked->version, "v1.3");
  ASSERT_EQ(unpacked->modules.size(), 1u);
  EXPECT_EQ(unpacked->modules[0].functions.size(), 2u);
  EXPECT_EQ(unpacked->modules[0].isa, binary::Isa::kArm);
}

TEST(Image, DetectsCorruption) {
  FirmwareImage image;
  image.vendor = "Dlink";
  image.modules.push_back(SmallModule());
  auto blob = Pack(image);
  blob[blob.size() / 2] ^= 0xFF;
  EXPECT_FALSE(Unpack(blob).has_value());
}

TEST(Image, RejectsTruncationAndGarbage) {
  FirmwareImage image;
  image.vendor = "Schneider";
  auto blob = Pack(image);
  blob.resize(blob.size() - 2);
  EXPECT_FALSE(Unpack(blob).has_value());
  EXPECT_FALSE(Unpack({0x12, 0x34}).has_value());
}

TEST(VulnLibrary, AllSourcesCompileOnEveryIsa) {
  ASSERT_EQ(VulnLibrary().size(), 7u);  // Table IV has seven CVEs
  for (const VulnSpec& spec : VulnLibrary()) {
    for (const std::string& source :
         {spec.vulnerable_source, spec.patched_source}) {
      minic::Program program;
      std::string error;
      ASSERT_TRUE(minic::Parse(source, &program, &error))
          << spec.cve << ": " << error;
      ASSERT_TRUE(minic::Check(program, &error)) << spec.cve << ": " << error;
      EXPECT_GE(program.FindFunction(spec.function), 0) << spec.cve;
      for (int isa = 0; isa < binary::kNumIsas; ++isa) {
        auto compiled = compiler::CompileProgram(
            program, static_cast<binary::Isa>(isa), spec.software);
        EXPECT_TRUE(compiled.ok) << spec.cve << ": " << compiled.error;
      }
    }
  }
}

TEST(VulnLibrary, FunctionsExecuteIdenticallyOnAllIsas) {
  // The CVE functions are not just compiled: run each (vulnerable and
  // patched) in the interpreter and on all four VMs with representative
  // arguments and require exact agreement.
  util::Rng rng(31);
  for (const VulnSpec& spec : VulnLibrary()) {
    for (const std::string& source :
         {spec.vulnerable_source, spec.patched_source}) {
      minic::Program program;
      std::string error;
      ASSERT_TRUE(minic::Parse(source, &program, &error)) << spec.cve;
      ASSERT_TRUE(minic::Check(program, &error)) << spec.cve;
      const int fn_index = program.FindFunction(spec.function);
      ASSERT_GE(fn_index, 0);
      const minic::Function& fn =
          program.functions()[static_cast<std::size_t>(fn_index)];
      std::vector<minic::ArgValue> args;
      for (const minic::Param& param : fn.params) {
        if (param.is_array) {
          std::vector<std::int64_t> data(16);
          for (auto& x : data) x = rng.NextInt(1, 120);
          // String-like loops scan through the & 7 mask window: place a
          // terminator inside it so every variant halts.
          data[7] = 0;
          data.back() = 0;
          args.push_back(minic::ArgValue::Array(std::move(data)));
        } else {
          args.push_back(minic::ArgValue::Scalar(rng.NextInt(0, 32)));
        }
      }
      minic::Interpreter interp(program);
      const auto expected = interp.Call(spec.function, args);
      ASSERT_TRUE(expected.ok) << spec.cve << ": " << expected.trap;
      for (int isa = 0; isa < binary::kNumIsas; ++isa) {
        auto compiled = compiler::CompileProgram(
            program, static_cast<binary::Isa>(isa), spec.software);
        ASSERT_TRUE(compiled.ok);
        binary::Vm vm(compiled.module);
        const auto actual = vm.Call(spec.function, args);
        ASSERT_TRUE(actual.ok)
            << spec.cve << "/" << binary::IsaName(static_cast<binary::Isa>(isa))
            << ": " << actual.trap;
        EXPECT_EQ(actual.value, expected.value)
            << spec.cve << "/" << binary::IsaName(static_cast<binary::Isa>(isa));
        EXPECT_EQ(actual.arrays, expected.arrays) << spec.cve;
      }
    }
  }
}

TEST(VulnLibrary, VulnerableAndPatchedDiffer) {
  for (const VulnSpec& spec : VulnLibrary()) {
    EXPECT_NE(spec.vulnerable_source, spec.patched_source) << spec.cve;
    EXPECT_NE(spec.vulnerable_version, spec.patched_version) << spec.cve;
  }
}

TEST(FirmwareCorpus, BuildsWithGroundTruth) {
  FirmwareCorpusConfig config;
  config.images = 8;
  config.seed = 7;
  FirmwareCorpus corpus = BuildFirmwareCorpus(config);
  EXPECT_EQ(corpus.unpack_failures, 0);
  EXPECT_EQ(corpus.images.size(), 8u);
  EXPECT_GT(corpus.functions.size(), 30u);
  int planted = 0;
  for (const FirmwareFunction& fn : corpus.functions) {
    EXPECT_EQ(fn.symbol.rfind("sub_", 0), 0u) << "symbols must be stripped";
    if (!fn.truth_cve.empty()) ++planted;
  }
  EXPECT_GT(planted, 0);
}

TEST(VulnSearch, UntrainedModelRunsEndToEnd) {
  FirmwareCorpusConfig config;
  config.images = 5;
  config.seed = 13;
  FirmwareCorpus corpus = BuildFirmwareCorpus(config);
  core::AsteriaConfig model_config;
  model_config.siamese.encoder.embedding_dim = 8;
  model_config.siamese.encoder.hidden_dim = 8;
  core::AsteriaModel model(model_config);
  VulnSearchResult result = RunVulnSearch(model, corpus, /*threshold=*/0.5);
  EXPECT_EQ(result.per_cve.size(), 7u);
  // Structural sanity: candidates >= confirmed for every CVE.
  for (const CveSearchResult& row : result.per_cve) {
    EXPECT_GE(row.candidates, row.confirmed);
  }
}

TEST(FirmwareCorpus, GenerationYieldsTheCorpusImages) {
  FirmwareCorpusConfig config;
  config.images = 6;
  config.seed = 5;
  const FirmwareCorpus generated = GenerateFirmware(config);
  const FirmwareCorpus corpus = BuildFirmwareCorpus(config);
  EXPECT_TRUE(generated.functions.empty());
  ASSERT_EQ(generated.images.size(), corpus.images.size());
  ASSERT_EQ(generated.planted.size(), generated.images.size());
  for (std::size_t i = 0; i < corpus.images.size(); ++i) {
    EXPECT_EQ(Pack(generated.images[i]), Pack(corpus.images[i])) << i;
  }
  // Every plant is extracted and carries its ground truth.
  std::size_t planted = 0;
  for (const auto& image : generated.planted) planted += image.size();
  std::size_t labeled = 0;
  for (const FirmwareFunction& fn : corpus.functions) {
    if (!fn.truth_cve.empty()) ++labeled;
  }
  EXPECT_GT(labeled, 0u);
  EXPECT_EQ(labeled, planted);
}

TEST(FirmwareCorpus, RecordsExtractionPositions) {
  FirmwareCorpusConfig config;
  config.images = 4;
  config.seed = 17;
  const FirmwareCorpus corpus = BuildFirmwareCorpus(config);
  ASSERT_FALSE(corpus.functions.empty());
  for (const FirmwareFunction& fn : corpus.functions) {
    const binary::BinModule& module =
        corpus.images[static_cast<std::size_t>(fn.image)]
            .modules[static_cast<std::size_t>(fn.module_index)];
    EXPECT_EQ(module.name, fn.module);
    EXPECT_EQ(
        module.functions[static_cast<std::size_t>(fn.function_index)].name,
        fn.symbol);
  }
}

TEST(QueryFeature, BuildsTheDecompiledLcrsTreeOrReportsAMissingName) {
  const binary::BinModule module = SmallModule();
  core::FunctionFeature feature;
  std::string why;
  ASSERT_TRUE(BuildQueryFeature(module, "g", 4, &feature, &why)) << why;
  const auto decompiled =
      decompiler::DecompileFunction(module, module.FindFunction("g"), 4);
  EXPECT_EQ(feature.name, "g");
  EXPECT_EQ(feature.callee_count, decompiled.callee_count);
  EXPECT_EQ(feature.tree.LabelHistogram(),
            ast::ToLeftChildRightSibling(decompiled.tree).LabelHistogram());

  EXPECT_FALSE(BuildQueryFeature(module, "missing", 4, &feature, &why));
  EXPECT_EQ(why, "no function 'missing'");
  const VulnSpec& spec = VulnLibrary().front();
  VulnSpec renamed = spec;
  renamed.function = "missing";
  EXPECT_FALSE(
      BuildCveQuery(renamed, binary::Isa::kX86, 4, &feature, &why));
  EXPECT_EQ(why.rfind(spec.cve + ": ", 0), 0u) << why;
}

// Every shipped software vulnerable, so the trained search has hits.
FirmwareCorpusConfig PlantedCorpusConfig() {
  FirmwareCorpusConfig config;
  config.images = 10;
  config.seed = 3;
  config.software_probability = 1.0;
  config.vulnerable_probability = 1.0;
  return config;
}

core::AsteriaConfig SmallModelConfig() {
  core::AsteriaConfig config;
  config.siamese.encoder.embedding_dim = 8;
  config.siamese.encoder.hidden_dim = 8;
  return config;
}

// Trains `model` to recognize the CVE functions across ISAs: each compiled
// on two ISAs (positive pairs) and against another CVE (negative pairs).
void TrainOnCveLibrary(core::AsteriaModel* model) {
  std::vector<ast::BinaryAst> queries;
  for (const VulnSpec& spec : VulnLibrary()) {
    for (int isa : {0, 2}) {
      core::FunctionFeature query;
      std::string why;
      ASSERT_TRUE(BuildCveQuery(spec, static_cast<binary::Isa>(isa),
                                decompiler::kDefaultBeta, &query, &why))
          << why;
      queries.push_back(std::move(query.tree));
    }
  }
  for (int epoch = 0; epoch < 40; ++epoch) {
    for (std::size_t i = 0; i + 1 < queries.size(); i += 2) {
      model->TrainPair(queries[i], queries[i + 1], true);
      const std::size_t other = (i + 2) % queries.size();
      model->TrainPair(queries[i], queries[other + 1], false);
    }
  }
}

TEST(VulnSearch, TrainedModelFindsPlantedFunction) {
  FirmwareCorpus corpus = BuildFirmwareCorpus(PlantedCorpusConfig());
  core::AsteriaModel model(SmallModelConfig());
  TrainOnCveLibrary(&model);
  VulnSearchResult result = RunVulnSearch(model, corpus, /*threshold=*/0.6);
  EXPECT_GT(result.total_confirmed, 0);
}

class VulnSearchOracle : public ::testing::Test {
 protected:
  void SetUp() override { util::ClearFailpoints(); }
  void TearDown() override { util::ClearFailpoints(); }

  // RunVulnSearch over `encodings` must reproduce the scalar loop's every
  // row field and both totals. Returns the oracle's total candidates.
  int ExpectMatchesOracle(const core::AsteriaModel& model,
                          const FirmwareCorpus& corpus,
                          const std::vector<nn::Matrix>& encodings,
                          double threshold) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    const VulnSearchResult actual =
        RunVulnSearch(model, corpus, encodings, threshold);
    const VulnSearchResult expected =
        oracle::ScalarVulnSearch(model, corpus, encodings, threshold);
    EXPECT_EQ(actual.per_cve.size(), expected.per_cve.size());
    for (std::size_t i = 0;
         i < std::min(actual.per_cve.size(), expected.per_cve.size()); ++i) {
      const CveSearchResult& a = actual.per_cve[i];
      const CveSearchResult& e = expected.per_cve[i];
      EXPECT_EQ(a.cve, e.cve);
      EXPECT_EQ(a.software, e.software) << e.cve;
      EXPECT_EQ(a.function, e.function) << e.cve;
      EXPECT_EQ(a.candidates, e.candidates) << e.cve;
      EXPECT_EQ(a.criteria_a, e.criteria_a) << e.cve;
      EXPECT_EQ(a.criteria_b, e.criteria_b) << e.cve;
      EXPECT_EQ(a.confirmed, e.confirmed) << e.cve;
      EXPECT_EQ(a.false_positives, e.false_positives) << e.cve;
      EXPECT_EQ(a.affected_models, e.affected_models) << e.cve;
    }
    EXPECT_EQ(actual.total_confirmed, expected.total_confirmed);
    EXPECT_EQ(actual.total_candidates, expected.total_candidates);
    return expected.total_candidates;
  }
};

TEST_F(VulnSearchOracle, UntrainedWeightsMatchScalarLoop) {
  FirmwareCorpusConfig config;
  config.images = 5;
  config.seed = 13;
  const FirmwareCorpus corpus = BuildFirmwareCorpus(config);
  const core::AsteriaModel model(SmallModelConfig());
  const std::vector<nn::Matrix> encodings =
      EncodeFirmwareCorpus(model, corpus);
  // Untrained scores sit in a few calibration bands below 0.4: 0.1 and 0.3
  // cut between bands, and 0.5 clears none of them.
  EXPECT_GT(ExpectMatchesOracle(model, corpus, encodings, 0.1), 0);
  EXPECT_GT(ExpectMatchesOracle(model, corpus, encodings, 0.3), 0);
  EXPECT_EQ(ExpectMatchesOracle(model, corpus, encodings, 0.5), 0);
}

TEST_F(VulnSearchOracle, TrainedWeightsMatchScalarLoopAtEveryThreshold) {
  const FirmwareCorpus corpus = BuildFirmwareCorpus(PlantedCorpusConfig());
  core::AsteriaModel model(SmallModelConfig());
  TrainOnCveLibrary(&model);
  const std::vector<nn::Matrix> encodings =
      EncodeFirmwareCorpus(model, corpus);
  // Threshold 0 keeps every pair; 0.9 lets the prune skip most of them.
  EXPECT_EQ(ExpectMatchesOracle(model, corpus, encodings, 0.0),
            static_cast<int>(VulnLibrary().size() * corpus.functions.size()));
  for (double threshold : {0.5, 0.6}) {
    EXPECT_GT(ExpectMatchesOracle(model, corpus, encodings, threshold), 0);
  }
  ExpectMatchesOracle(model, corpus, encodings, 0.9);
}

TEST_F(VulnSearchOracle, EncodingPlaceholdersMatchScalarLoop) {
  const FirmwareCorpus corpus = BuildFirmwareCorpus(PlantedCorpusConfig());
  core::AsteriaModel model(SmallModelConfig());
  TrainOnCveLibrary(&model);
  ASSERT_TRUE(util::ConfigureFailpoints("firmware.encode=every:4"));
  const std::vector<nn::Matrix> encodings =
      EncodeFirmwareCorpus(model, corpus);
  util::ClearFailpoints();
  ASSERT_EQ(encodings.size(), corpus.functions.size());
  ASSERT_EQ(encodings[3].size(), 0u);
  for (double threshold : {0.0, 0.5, 0.6, 0.9}) {
    ExpectMatchesOracle(model, corpus, encodings, threshold);
  }
}

}  // namespace
}  // namespace asteria::firmware
