// Dataset tests, including the crown-jewel property test: every generated
// program type-checks, terminates in the interpreter, and agrees with the
// VM on all four ISAs (parameterized over seeds).
#include <gtest/gtest.h>

#include "binary/vm.h"
#include "compiler/compile.h"
#include "dataset/corpus.h"
#include "decompiler/decompile.h"
#include "dataset/generator.h"
#include "minic/interp.h"
#include "minic/printer.h"
#include "minic/sema.h"

namespace asteria::dataset {
namespace {

using minic::ArgValue;

TEST(Generator, DeterministicForSeed) {
  GeneratorConfig config;
  util::Rng rng1(42), rng2(42);
  minic::Program p1 = GenerateProgram(config, rng1);
  minic::Program p2 = GenerateProgram(config, rng2);
  EXPECT_EQ(minic::Print(p1), minic::Print(p2));
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig config;
  util::Rng rng1(1), rng2(2);
  EXPECT_NE(minic::Print(GenerateProgram(config, rng1)),
            minic::Print(GenerateProgram(config, rng2)));
}

class GeneratorProperty : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorProperty, SemaInterpAndAllIsasAgree) {
  GeneratorConfig config;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  minic::Program program = GenerateProgram(config, rng);
  std::string error;
  ASSERT_TRUE(minic::Check(program, &error))
      << error << "\n" << minic::Print(program);

  // Compile for all ISAs up front.
  std::vector<binary::BinModule> modules;
  for (int isa = 0; isa < binary::kNumIsas; ++isa) {
    auto compiled = compiler::CompileProgram(
        program, static_cast<binary::Isa>(isa), "prop");
    ASSERT_TRUE(compiled.ok) << compiled.error;
    modules.push_back(std::move(compiled.module));
  }

  // Call every function with a few random argument sets.
  minic::Interpreter::Options options;
  options.max_steps = 4'000'000;
  minic::Interpreter interp(program, options);
  for (const minic::Function& fn : program.functions()) {
    for (int trial = 0; trial < 2; ++trial) {
      std::vector<ArgValue> args;
      for (const minic::Param& param : fn.params) {
        if (param.is_array) {
          std::vector<std::int64_t> data(8);
          for (auto& x : data) x = rng.NextInt(-100, 100);
          args.push_back(ArgValue::Array(std::move(data)));
        } else {
          args.push_back(ArgValue::Scalar(rng.NextInt(-50, 50)));
        }
      }
      const auto expected = interp.Call(fn.name, args);
      ASSERT_TRUE(expected.ok)
          << fn.name << " trapped: " << expected.trap << "\n"
          << minic::Print(program);
      for (const binary::BinModule& module : modules) {
        binary::Vm::Options vm_options;
        vm_options.max_steps = 16'000'000;
        binary::Vm vm(module, vm_options);
        const auto actual = vm.Call(fn.name, args);
        ASSERT_TRUE(actual.ok)
            << binary::IsaName(module.isa) << "/" << fn.name << ": "
            << actual.trap;
        EXPECT_EQ(actual.value, expected.value)
            << binary::IsaName(module.isa) << "/" << fn.name << "\n"
            << minic::Print(program);
        EXPECT_EQ(actual.arrays, expected.arrays)
            << binary::IsaName(module.isa) << "/" << fn.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty, ::testing::Range(0, 25));

TEST(Corpus, BuildsAllIsasWithGroundTruth) {
  CorpusConfig config;
  config.packages = 4;
  config.seed = 77;
  Corpus corpus = BuildCorpus(config);
  EXPECT_EQ(corpus.binaries_per_isa[0], 4);
  EXPECT_EQ(corpus.binaries_per_isa[3], 4);
  EXPECT_GT(corpus.functions.size(), 20u);
  // Every retained function has a valid preprocessed tree and ACFG.
  for (const CorpusFunction& fn : corpus.functions) {
    EXPECT_GE(fn.ast_size, decompiler::kMinAstSize);
    EXPECT_EQ(fn.preprocessed.size(), fn.ast_size);
    EXPECT_GT(fn.acfg.size(), 0);
  }
}

TEST(Corpus, HomologousFunctionsExistAcrossIsas) {
  CorpusConfig config;
  config.packages = 3;
  config.seed = 5;
  Corpus corpus = BuildCorpus(config);
  int cross = 0;
  for (const auto& [key, idx] : corpus.index) {
    if (std::get<2>(key) != 0) continue;
    if (corpus.Find(std::get<0>(key), std::get<1>(key), 2) >= 0) ++cross;
  }
  EXPECT_GT(cross, 0);
}

TEST(Pairs, BalancedAndLabeledCorrectly) {
  CorpusConfig config;
  config.packages = 5;
  config.seed = 11;
  Corpus corpus = BuildCorpus(config);
  util::Rng rng(3);
  auto pairs = MakePairs(corpus, 0, 2, rng);
  ASSERT_GT(pairs.size(), 10u);
  int positives = 0;
  for (const CorpusPair& pair : pairs) {
    const CorpusFunction& a = corpus.functions[static_cast<std::size_t>(pair.a)];
    const CorpusFunction& b = corpus.functions[static_cast<std::size_t>(pair.b)];
    EXPECT_EQ(a.isa, 0);
    EXPECT_EQ(b.isa, 2);
    const bool same = a.package == b.package && a.function == b.function;
    EXPECT_EQ(same, pair.homologous);
    if (pair.homologous) ++positives;
  }
  EXPECT_GT(positives, 0);
  EXPECT_LT(positives, static_cast<int>(pairs.size()));
}

TEST(Pairs, MixedCoversAllCombinations) {
  CorpusConfig config;
  config.packages = 3;
  config.seed = 21;
  Corpus corpus = BuildCorpus(config);
  util::Rng rng(9);
  auto pairs = MakeMixedPairs(corpus, rng);
  std::set<std::pair<int, int>> combos;
  for (const CorpusPair& pair : pairs) {
    combos.insert({corpus.functions[static_cast<std::size_t>(pair.a)].isa,
                   corpus.functions[static_cast<std::size_t>(pair.b)].isa});
  }
  EXPECT_EQ(combos.size(), 6u);
}

TEST(Pairs, SplitIsEightToTwo) {
  std::vector<CorpusPair> pairs(100);
  util::Rng rng(1);
  std::vector<CorpusPair> train, test;
  SplitPairs(pairs, rng, &train, &test);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(test.size(), 20u);
}

}  // namespace
}  // namespace asteria::dataset
