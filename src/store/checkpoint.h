// Model checkpoints on the chunked container format (docs/FORMATS.md).
//
// A checkpoint is a kKindModel container holding one MMET chunk (schema
// version, parameter count, total weights, weights CRC fingerprint) and one
// PARM chunk per parameter (name, rows, cols, raw little-endian doubles).
// It is the only weights format: any other file fails the container's
// header checks (bad magic) before a value is read.
//
// Loading is all-or-nothing: every parameter of the destination store must
// be present with matching shape before any value is committed, so a failed
// load never leaves a half-updated model behind.
#pragma once

#include <cstdint>
#include <string>

#include "nn/parameter.h"

namespace asteria::store {

// CRC32 over every parameter's raw values in creation order — a cheap
// fingerprint that ties derived artifacts (index snapshots, cached
// encodings) to the exact weights that produced them.
std::uint32_t WeightsFingerprint(const nn::ParameterStore& params);

// Writes all parameters of `params` to `path` in the container format.
bool SaveModelCheckpoint(const nn::ParameterStore& params,
                         const std::string& path, std::string* error);

// Loads parameter values into an already-constructed store from a
// container checkpoint. The file must cover exactly the store's parameter
// set (same names, same shapes).
bool LoadModelCheckpoint(nn::ParameterStore* params, const std::string& path,
                         std::string* error);

}  // namespace asteria::store
