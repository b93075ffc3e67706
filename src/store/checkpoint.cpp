#include "store/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "store/container.h"
#include "util/log.h"

namespace asteria::store {

namespace {

constexpr std::uint32_t kTagModelMeta = FourCc('M', 'M', 'E', 'T');
constexpr std::uint32_t kTagParameter = FourCc('P', 'A', 'R', 'M');
// Checkpoint schema version (independent of the container version).
constexpr std::uint32_t kCheckpointVersion = 1;

bool Fail(const std::string& reason, std::string* error) {
  if (error != nullptr) *error = reason;
  ASTERIA_LOG(Error) << "checkpoint: " << reason;
  return false;
}

}  // namespace

std::uint32_t WeightsFingerprint(const nn::ParameterStore& params) {
  std::uint32_t crc = 0;
  for (const nn::Parameter* p : params.parameters()) {
    crc = Crc32(p->value.data(), p->value.size() * sizeof(double), crc);
  }
  return crc;
}

bool SaveModelCheckpoint(const nn::ParameterStore& params,
                         const std::string& path, std::string* error) {
  std::string io_error;
  Writer writer;
  if (!writer.Open(path, kKindModel, &io_error)) return Fail(io_error, error);

  ChunkBuilder meta;
  meta.PutU32(kCheckpointVersion);
  meta.PutU64(params.parameters().size());
  meta.PutU64(params.TotalWeights());
  meta.PutU32(WeightsFingerprint(params));
  if (!writer.WriteChunk(kTagModelMeta, meta, &io_error)) {
    return Fail(io_error, error);
  }

  for (const nn::Parameter* p : params.parameters()) {
    ChunkBuilder chunk;
    chunk.PutString(p->name);
    chunk.PutU32(static_cast<std::uint32_t>(p->value.rows()));
    chunk.PutU32(static_cast<std::uint32_t>(p->value.cols()));
    chunk.PutF64Array(p->value.data(), p->value.size());
    if (!writer.WriteChunk(kTagParameter, chunk, &io_error)) {
      return Fail(io_error, error);
    }
  }
  if (!writer.Finish(&io_error)) return Fail(io_error, error);
  return true;
}

bool LoadModelCheckpoint(nn::ParameterStore* params, const std::string& path,
                         std::string* error) {
  std::string io_error;
  Reader reader;
  if (!reader.Open(path, kKindModel, &io_error)) return Fail(io_error, error);

  std::uint64_t declared_count = 0;
  bool saw_meta = false;
  // Staged values: nothing is committed to `params` until every parameter
  // has been matched and parsed.
  std::vector<std::pair<nn::Parameter*, std::vector<double>>> staged;
  std::set<std::string> seen;
  std::vector<std::uint8_t> payload;
  for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
    const ChunkInfo& info = reader.chunks()[i];
    if (info.tag != kTagModelMeta && info.tag != kTagParameter) {
      continue;  // unknown chunks are skippable by design (forward compat)
    }
    if (!reader.ReadChunk(i, &payload, &io_error)) return Fail(io_error, error);
    ChunkParser parser(payload);
    if (info.tag == kTagModelMeta) {
      std::uint32_t schema = 0, fingerprint = 0;
      std::uint64_t total_weights = 0;
      if (!parser.GetU32(&schema, &io_error) ||
          !parser.GetU64(&declared_count, &io_error) ||
          !parser.GetU64(&total_weights, &io_error) ||
          !parser.GetU32(&fingerprint, &io_error)) {
        return Fail(path + ": bad MMET chunk: " + io_error, error);
      }
      if (schema != kCheckpointVersion) {
        return Fail(path + ": unsupported checkpoint schema version " +
                        std::to_string(schema),
                    error);
      }
      saw_meta = true;
      continue;
    }
    std::string name;
    std::uint32_t rows = 0, cols = 0;
    if (!parser.GetString(&name, &io_error) ||
        !parser.GetU32(&rows, &io_error) || !parser.GetU32(&cols, &io_error)) {
      return Fail(path + ": bad PARM chunk header: " + io_error, error);
    }
    if (!seen.insert(name).second) {
      return Fail(path + ": duplicate PARM chunk for parameter '" + name + "'",
                  error);
    }
    nn::Parameter* p = params->Find(name);
    if (p == nullptr) {
      return Fail(path + ": checkpoint parameter '" + name +
                      "' does not exist in this model (config mismatch?)",
                  error);
    }
    if (p->value.rows() != static_cast<int>(rows) ||
        p->value.cols() != static_cast<int>(cols)) {
      return Fail(path + ": parameter '" + name + "' has shape " +
                      std::to_string(rows) + "x" + std::to_string(cols) +
                      " in the checkpoint but " +
                      std::to_string(p->value.rows()) + "x" +
                      std::to_string(p->value.cols()) + " in this model",
                  error);
    }
    std::vector<double> values(p->value.size());
    if (!parser.GetF64Array(values.data(), values.size(), &io_error)) {
      return Fail(path + ": parameter '" + name + "' payload truncated: " +
                      io_error,
                  error);
    }
    for (double v : values) {
      if (!std::isfinite(v)) {
        return Fail(path + ": parameter '" + name +
                        "' contains non-finite values (NaN/Inf) — refusing "
                        "to load a poisoned checkpoint",
                    error);
      }
    }
    staged.emplace_back(p, std::move(values));
  }

  if (!saw_meta) {
    return Fail(path + ": missing MMET metadata chunk", error);
  }
  if (staged.size() != declared_count) {
    return Fail(path + ": MMET declares " + std::to_string(declared_count) +
                    " parameters but " + std::to_string(staged.size()) +
                    " PARM chunks were found",
                error);
  }
  if (staged.size() != params->parameters().size()) {
    return Fail(path + ": checkpoint covers " + std::to_string(staged.size()) +
                    " parameters but this model has " +
                    std::to_string(params->parameters().size()),
                error);
  }
  for (auto& [p, values] : staged) {
    std::copy(values.begin(), values.end(), p->value.data());
  }
  return true;
}

}  // namespace asteria::store
