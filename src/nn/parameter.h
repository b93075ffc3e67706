// Trainable parameters and a store that owns them.
//
// Parameters are owned by a ParameterStore (stable addresses; models hold
// Parameter* handles). Gradients are accumulated by Tape::Backward and
// consumed by an optimizer (see optimizer.h). Weights persist through
// store::SaveModelCheckpoint / LoadModelCheckpoint (store/checkpoint.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.h"
#include "util/rng.h"

namespace asteria::nn {

// One trainable tensor with its accumulated gradient.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;

  Parameter(std::string name, int rows, int cols)
      : name(std::move(name)), value(rows, cols), grad(rows, cols) {}

  void ZeroGrad() { grad.SetZero(); }
};

// Owns parameters; addresses remain valid for the store's lifetime.
class ParameterStore {
 public:
  // Creates a zero-initialized parameter. Names must be unique (they key
  // the checkpoint format); duplicate names throw.
  Parameter* Create(const std::string& name, int rows, int cols);

  // Creates a parameter with Xavier/Glorot uniform init.
  Parameter* CreateXavier(const std::string& name, int rows, int cols,
                          util::Rng& rng);

  const std::vector<Parameter*>& parameters() const { return handles_; }
  Parameter* Find(const std::string& name) const;

  void ZeroGrads();

  // Total number of scalar weights.
  std::size_t TotalWeights() const;

 private:
  std::vector<std::unique_ptr<Parameter>> owned_;
  std::vector<Parameter*> handles_;
};

}  // namespace asteria::nn
