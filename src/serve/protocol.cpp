#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

namespace asteria::serve {

namespace {

// Little-endian scalar codecs for the fixed header (payloads go through
// store::ChunkBuilder/ChunkParser, which already encode this way).
void PutLe32(std::uint32_t v, std::uint8_t* out) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void PutLe64(std::uint64_t v, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint32_t GetLe32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

std::uint64_t GetLe64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

using SteadyTime = std::chrono::steady_clock::time_point;

// Reads exactly `size` bytes. Returns size on success, 0 on clean EOF
// before the first byte, -1 on error or EOF mid-buffer, -2 when the
// frame-assembly deadline expires first.
//
// `deadline` (may be null) threads the assembly budget across the several
// reads that make up one frame. Unarmed (time_point{}) it means "no frame
// in flight yet": EAGAIN wakeups from the fd's SO_RCVTIMEO just retry, so
// an idle connection can sit forever. The first byte that lands arms it at
// now + io_timeout_ms, and from then on every EAGAIN wakeup — and every
// partial read, so a steady trickle cannot dodge the check — tests it.
// With a null deadline, EAGAIN is an ordinary error (-1): the client's
// SO_RCVTIMEO expiry fails the exchange.
ssize_t ReadFull(int fd, void* buffer, std::size_t size, int io_timeout_ms = 0,
                 SteadyTime* deadline = nullptr) {
  std::uint8_t* out = static_cast<std::uint8_t*>(buffer);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd, out + done, size - done, 0);
    if (n == 0) return done == 0 ? 0 : -1;
    if (n < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && deadline != nullptr) {
        if (*deadline == SteadyTime{}) continue;  // idle: no frame started
        if (std::chrono::steady_clock::now() < *deadline) continue;
        return -2;
      }
      return -1;
    }
    done += static_cast<std::size_t>(n);
    if (deadline != nullptr) {
      if (*deadline == SteadyTime{}) {
        *deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(io_timeout_ms);
      } else if (done < size &&
                 std::chrono::steady_clock::now() >= *deadline) {
        return -2;
      }
    }
  }
  return static_cast<ssize_t>(done);
}

// MSG_NOSIGNAL: a peer that hung up turns into an error return, not a
// process-killing SIGPIPE.
bool WriteFull(int fd, const void* buffer, std::size_t size) {
  const std::uint8_t* in = static_cast<const std::uint8_t*>(buffer);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd, in + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ReadStatus ReadFrame(int fd, FrameType* type,
                     std::vector<std::uint8_t>* payload, std::string* error,
                     std::uint64_t* deadline_ms, int io_timeout_ms,
                     std::uint64_t* trace_id) {
  SteadyTime assembly_deadline{};
  SteadyTime* deadline = io_timeout_ms > 0 ? &assembly_deadline : nullptr;
  const auto timed_out = [&] {
    *error = "frame assembly timed out after " +
             std::to_string(io_timeout_ms) + " ms (slow or stalled peer)";
    return ReadStatus::kTimeout;
  };
  std::uint8_t header[kFrameHeaderSize];
  const ssize_t got =
      ReadFull(fd, header, kFrameHeaderSize, io_timeout_ms, deadline);
  if (got == 0) return ReadStatus::kClosed;
  if (got == -2) return timed_out();
  if (got < 0) {
    *error = "short read inside frame header (peer closed or I/O error)";
    return ReadStatus::kBad;
  }
  if (GetLe32(header) != kServeMagic) {
    *error = "bad frame magic (expected ASRV)";
    return ReadStatus::kBad;
  }
  const std::uint32_t version = GetLe32(header + 4);
  if (version != kProtocolVersion) {
    *error = "unsupported protocol version " + std::to_string(version) +
             " (this daemon speaks v" + std::to_string(kProtocolVersion) + ")";
    return ReadStatus::kBad;
  }
  const std::uint32_t raw_type = GetLe32(header + 8);
  const std::uint32_t declared_crc = GetLe32(header + 12);
  const std::uint64_t size = GetLe64(header + 16);
  if (deadline_ms != nullptr) {
    *deadline_ms = std::min(GetLe64(header + 24), kMaxDeadlineMs);
  }
  if (trace_id != nullptr) *trace_id = GetLe64(header + 32);
  if (size > kMaxFramePayload) {
    *error = "declared payload of " + std::to_string(size) +
             " bytes exceeds the " + std::to_string(kMaxFramePayload) +
             "-byte frame cap";
    return ReadStatus::kBad;
  }
  payload->resize(static_cast<std::size_t>(size));
  if (size > 0) {
    const ssize_t body =
        ReadFull(fd, payload->data(), payload->size(), io_timeout_ms, deadline);
    if (body == -2) return timed_out();
    if (body != static_cast<ssize_t>(size)) {
      *error = "frame truncated: declared " + std::to_string(size) +
               " payload bytes but the stream ended early";
      return ReadStatus::kBad;
    }
  }
  const std::uint32_t actual_crc =
      store::Crc32(payload->data(), payload->size());
  if (actual_crc != declared_crc) {
    *error = "payload CRC mismatch (corrupted frame)";
    return ReadStatus::kBad;
  }
  *type = static_cast<FrameType>(raw_type);
  return ReadStatus::kFrame;
}

bool WriteFrame(int fd, FrameType type, const store::ChunkBuilder& payload,
                std::string* error, std::uint64_t deadline_ms,
                std::uint64_t trace_id) {
  // Every reader rejects an over-cap frame as kBad, so refuse it here,
  // before any byte goes out: the stream stays framed.
  if (payload.size() > kMaxFramePayload) {
    *error = "payload of " + std::to_string(payload.size()) +
             " bytes exceeds the " + std::to_string(kMaxFramePayload) +
             "-byte frame cap";
    return false;
  }
  std::uint8_t header[kFrameHeaderSize];
  PutLe32(kServeMagic, header);
  PutLe32(kProtocolVersion, header + 4);
  PutLe32(static_cast<std::uint32_t>(type), header + 8);
  PutLe32(store::Crc32(payload.bytes().data(), payload.size()), header + 12);
  PutLe64(payload.size(), header + 16);
  PutLe64(deadline_ms, header + 24);
  PutLe64(trace_id, header + 32);
  if (!WriteFull(fd, header, kFrameHeaderSize) ||
      !WriteFull(fd, payload.bytes().data(), payload.size())) {
    *error = "frame write failed (peer closed or I/O error)";
    return false;
  }
  return true;
}

namespace {

void PutTree(const ast::BinaryAst& tree, store::ChunkBuilder* out) {
  out->PutU32(static_cast<std::uint32_t>(tree.size()));
  out->PutI32(tree.root());
  for (ast::NodeId id = 0; id < tree.size(); ++id) {
    const ast::BinaryNode& node = tree.node(id);
    out->PutI32(node.label);
    out->PutI32(node.payload_bucket);
    out->PutI32(node.left);
    out->PutI32(node.right);
  }
}

// Unlike the trusted on-disk corpus cache, wire ASTs are adversarial: on
// top of the bounds checks this enforces tree shape — every child id in
// range, no node claimed by two parents, the root nobody's child — so the
// post-order walk the encoder runs is provably finite and in bounds.
bool GetTree(store::ChunkParser* parser, ast::BinaryAst* tree,
             std::string* error) {
  std::uint32_t count = 0;
  ast::NodeId root = ast::kInvalidNode;
  if (!parser->GetU32(&count, error) || !parser->GetI32(&root, error)) {
    return false;
  }
  // 16 payload bytes per node bounds the declared count before allocating.
  if (static_cast<std::uint64_t>(count) * 16 > parser->remaining()) {
    *error = "query AST declares " + std::to_string(count) +
             " nodes but only " + std::to_string(parser->remaining()) +
             " payload bytes remain";
    return false;
  }
  std::vector<ast::BinaryNode> nodes(count);
  for (ast::BinaryNode& node : nodes) {
    if (!parser->GetI32(&node.label, error) ||
        !parser->GetI32(&node.payload_bucket, error) ||
        !parser->GetI32(&node.left, error) ||
        !parser->GetI32(&node.right, error)) {
      return false;
    }
  }
  if (count == 0) {
    *tree = ast::BinaryAst();
    return true;
  }
  if (root < 0 || root >= static_cast<ast::NodeId>(count)) {
    *error = "query AST root " + std::to_string(root) + " out of range [0, " +
             std::to_string(count) + ")";
    return false;
  }
  std::vector<char> has_parent(count, 0);
  for (std::uint32_t id = 0; id < count; ++id) {
    for (const ast::NodeId child : {nodes[id].left, nodes[id].right}) {
      if (child == ast::kInvalidNode) continue;
      if (child < 0 || child >= static_cast<ast::NodeId>(count)) {
        *error = "query AST node " + std::to_string(id) + " references child " +
                 std::to_string(child) + " out of range";
        return false;
      }
      if (has_parent[static_cast<std::size_t>(child)]) {
        *error = "query AST node " + std::to_string(child) +
                 " has two parents — not a tree";
        return false;
      }
      has_parent[static_cast<std::size_t>(child)] = 1;
    }
  }
  if (has_parent[static_cast<std::size_t>(root)]) {
    *error = "query AST root " + std::to_string(root) +
             " is another node's child — not a tree";
    return false;
  }
  *tree = ast::BinaryAst(std::move(nodes), root);
  return true;
}

}  // namespace

void PutQuery(std::uint64_t id, const core::FunctionFeature& query, int k,
              double threshold, FrameType type, store::ChunkBuilder* out) {
  out->PutU64(id);
  out->PutString(query.name);
  out->PutI32(query.callee_count);
  if (type == FrameType::kTopK) {
    out->PutI32(k);
  } else {
    out->PutF64(threshold);
  }
  PutTree(query.tree, out);
}

bool GetQuery(const std::vector<std::uint8_t>& payload, FrameType type,
              std::uint64_t* id, core::FunctionFeature* query, int* k,
              double* threshold, std::string* error) {
  store::ChunkParser parser(payload);
  *id = 0;
  if (!parser.GetU64(id, error) || !parser.GetString(&query->name, error) ||
      !parser.GetI32(&query->callee_count, error)) {
    return false;
  }
  if (type == FrameType::kTopK) {
    std::int32_t k32 = 0;
    if (!parser.GetI32(&k32, error)) return false;
    *k = k32;
  } else {
    if (!parser.GetF64(threshold, error)) return false;
  }
  if (!GetTree(&parser, &query->tree, error)) return false;
  if (!parser.AtEnd()) {
    *error = std::to_string(parser.remaining()) +
             " trailing bytes after the query payload";
    return false;
  }
  return true;
}

void PutHits(std::uint64_t id, const std::vector<core::SearchHit>& hits,
             store::ChunkBuilder* out) {
  out->PutU64(id);
  out->PutU32(static_cast<std::uint32_t>(hits.size()));
  for (const core::SearchHit& hit : hits) {
    out->PutI32(hit.index);
    out->PutString(hit.name);
    out->PutF64(hit.score);
  }
}

bool GetHits(const std::vector<std::uint8_t>& payload, std::uint64_t* id,
             std::vector<core::SearchHit>* hits, std::string* error) {
  store::ChunkParser parser(payload);
  std::uint32_t count = 0;
  if (!parser.GetU64(id, error) || !parser.GetU32(&count, error)) return false;
  // 16 bytes minimum per hit (index + empty-name length + score).
  if (static_cast<std::uint64_t>(count) * 16 > parser.remaining()) {
    *error = "hits reply declares " + std::to_string(count) +
             " hits but only " + std::to_string(parser.remaining()) +
             " payload bytes remain";
    return false;
  }
  hits->clear();
  hits->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    core::SearchHit hit;
    if (!parser.GetI32(&hit.index, error) ||
        !parser.GetString(&hit.name, error) ||
        !parser.GetF64(&hit.score, error)) {
      return false;
    }
    hits->push_back(std::move(hit));
  }
  return true;
}

void PutControl(std::uint64_t id, store::ChunkBuilder* out) { out->PutU64(id); }

bool GetControl(const std::vector<std::uint8_t>& payload, std::uint64_t* id,
                std::string* error) {
  store::ChunkParser parser(payload);
  return parser.GetU64(id, error);
}

void PutError(std::uint64_t id, const std::string& message,
              store::ChunkBuilder* out) {
  out->PutU64(id);
  out->PutString(message);
}

bool GetError(const std::vector<std::uint8_t>& payload, std::uint64_t* id,
              std::string* message, std::string* error) {
  store::ChunkParser parser(payload);
  return parser.GetU64(id, error) && parser.GetString(message, error);
}

void PutHealthInfo(std::uint64_t id, const HealthInfo& info,
                   store::ChunkBuilder* out) {
  out->PutU64(id);
  out->PutU64(info.index_size);
  out->PutU64(info.queue_depth);
  out->PutU64(info.connections);
  out->PutU32(info.draining ? 1 : 0);
  out->PutU64(info.uptime_ms);
  out->PutU64(info.answered);
  out->PutU64(info.shed);
  out->PutU64(info.deadline_exceeded);
  out->PutU64(info.requests);
  out->PutU64(info.cancelled);
  out->PutU64(info.p50_nanos);
  out->PutU64(info.p95_nanos);
  out->PutU64(info.p99_nanos);
}

bool GetHealthInfo(const std::vector<std::uint8_t>& payload, std::uint64_t* id,
                   HealthInfo* info, std::string* error) {
  store::ChunkParser parser(payload);
  std::uint32_t draining = 0;
  if (!parser.GetU64(id, error) || !parser.GetU64(&info->index_size, error) ||
      !parser.GetU64(&info->queue_depth, error) ||
      !parser.GetU64(&info->connections, error) ||
      !parser.GetU32(&draining, error)) {
    return false;
  }
  info->draining = draining != 0;
  if (!parser.GetU64(&info->uptime_ms, error) ||
      !parser.GetU64(&info->answered, error) ||
      !parser.GetU64(&info->shed, error) ||
      !parser.GetU64(&info->deadline_exceeded, error) ||
      !parser.GetU64(&info->requests, error) ||
      !parser.GetU64(&info->cancelled, error) ||
      !parser.GetU64(&info->p50_nanos, error) ||
      !parser.GetU64(&info->p95_nanos, error) ||
      !parser.GetU64(&info->p99_nanos, error)) {
    return false;
  }
  if (!parser.AtEnd()) {
    *error = std::to_string(parser.remaining()) +
             " trailing bytes after the health payload";
    return false;
  }
  return true;
}

}  // namespace asteria::serve
