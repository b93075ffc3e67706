#include "nn/parameter.h"

#include <cmath>
#include <stdexcept>

namespace asteria::nn {

Parameter* ParameterStore::Create(const std::string& name, int rows,
                                  int cols) {
  if (Find(name) != nullptr) {
    throw std::invalid_argument("duplicate parameter name: " + name);
  }
  owned_.push_back(std::make_unique<Parameter>(name, rows, cols));
  handles_.push_back(owned_.back().get());
  return handles_.back();
}

Parameter* ParameterStore::CreateXavier(const std::string& name, int rows,
                                        int cols, util::Rng& rng) {
  Parameter* p = Create(name, rows, cols);
  const double bound = std::sqrt(6.0 / (rows + cols));
  for (std::size_t i = 0; i < p->value.size(); ++i) {
    p->value[i] = rng.NextDouble(-bound, bound);
  }
  return p;
}

Parameter* ParameterStore::Find(const std::string& name) const {
  for (Parameter* p : handles_) {
    if (p->name == name) return p;
  }
  return nullptr;
}

void ParameterStore::ZeroGrads() {
  for (Parameter* p : handles_) p->ZeroGrad();
}

std::size_t ParameterStore::TotalWeights() const {
  std::size_t total = 0;
  for (Parameter* p : handles_) total += p->value.size();
  return total;
}

}  // namespace asteria::nn
