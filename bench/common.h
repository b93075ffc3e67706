// Shared experiment harness for the bench binaries.
//
// Builds the corpus, trains Asteria/Gemini, and scores labeled pairs for
// all four methods (ASTERIA, ASTERIA-WOC, Gemini, Diaphora). Every bench
// binary that regenerates a figure/table of the paper includes this.
#pragma once

#include <string>
#include <vector>

#include "baselines/diaphora.h"
#include "baselines/gemini.h"
#include "core/asteria.h"
#include "dataset/corpus.h"
#include "eval/roc.h"
#include "util/flags.h"
#include "util/rng.h"

namespace asteria::bench {

// A built corpus plus a mixed-architecture train/test split.
struct ExperimentSetup {
  dataset::Corpus corpus;
  std::vector<dataset::CorpusPair> train;
  std::vector<dataset::CorpusPair> test;
};

// Standard flags shared by the training benches; call before Parse().
void DefineCommonFlags(util::Flags* flags);

// Just the observability flags (--log_level, --metrics_out) for benches
// that define their own experiment flags instead of the common set.
// DefineCommonFlags already includes these.
void DefineObservabilityFlags(util::Flags* flags);

// Applies the cross-cutting flags after Parse(): output directory, log
// level (--quiet wins over --log_level), failpoint spec, and — when
// --metrics_out is set — registers an atexit hook that writes the metrics
// snapshot JSON when the bench exits. Call once right after Parse();
// BuildSetup() also calls it, so benches that use BuildSetup get it for
// free (the call is idempotent).
void ApplyCommonFlags(const util::Flags& flags);

// Applies the encoder-shape flags (--embedding, --hidden) to an
// AsteriaConfig. --hidden=0 (the default) keeps hidden_dim equal to
// embedding_dim, matching the paper's setup.
void ApplyEncoderFlags(const util::Flags& flags, core::AsteriaConfig* config);

// Builds the corpus and the mixed-arch 8:2 split from the parsed flags.
ExperimentSetup BuildSetup(const util::Flags& flags);

// Trains an Asteria model on setup.train for `epochs` epochs (logs per
// epoch). Returns the per-epoch mean losses.
std::vector<double> TrainAsteria(core::AsteriaModel* model,
                                 const ExperimentSetup& setup, int epochs,
                                 util::Rng* rng);

// Trains a Gemini model on setup.train.
std::vector<double> TrainGemini(baselines::GeminiModel* model,
                                const ExperimentSetup& setup, int epochs,
                                util::Rng* rng);

// Scores pairs with Asteria; encodes each distinct function once (offline)
// then uses the fast online head. `calibrated` = apply eq. (10).
std::vector<eval::Scored> ScoreAsteria(
    const core::AsteriaModel& model, const dataset::Corpus& corpus,
    const std::vector<dataset::CorpusPair>& pairs, bool calibrated);

std::vector<eval::Scored> ScoreGemini(
    const baselines::GeminiModel& model, const dataset::Corpus& corpus,
    const std::vector<dataset::CorpusPair>& pairs);

std::vector<eval::Scored> ScoreDiaphora(
    const dataset::Corpus& corpus,
    const std::vector<dataset::CorpusPair>& pairs);

// Restricts pairs to one ISA combination.
std::vector<dataset::CorpusPair> FilterPairs(
    const dataset::Corpus& corpus,
    const std::vector<dataset::CorpusPair>& pairs, int isa_a, int isa_b);

// Output directory for CSVs (created on demand).
std::string OutDir();

}  // namespace asteria::bench
