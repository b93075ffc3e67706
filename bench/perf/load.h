// TopK load against a running asteria-serve: pipelined frames over raw
// connections (serve::PutQuery / WriteFrame / ReadFrame), one thread per
// connection, either open loop (every request sent at its scheduled time,
// whatever the daemon is doing) or closed loop (a fixed window of requests
// outstanding). Latency is timed from each request's scheduled send time,
// so a stall is charged to every request it delays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/asteria.h"
#include "core/search_index.h"
#include "harness.h"
#include "util/rng.h"

namespace asteria::perf {

struct Outcome {
  int query = 0;                // index into the query pool
  std::int64_t due = 0;         // scheduled send time
  std::int64_t sent = 0;        // payload build began (lag = sent - due)
  std::int64_t put_nanos = 0;   // PutQuery
  std::int64_t written = 0;     // WriteFrame returned
  std::int64_t received = 0;    // ReadFrame returned; 0 = no reply
  std::int64_t get_nanos = 0;   // GetHits
  std::uint64_t trace_id = 0;
  bool ok = false;              // kHits, parsed, well formed, trace echoed
  bool shed = false;            // kOverloaded
  std::vector<core::SearchHit> hits;  // kept only for checked queries

  double latency_ms() const { return static_cast<double>(received - due) * 1e-6; }
};

struct Phase {
  // Open loop: one entry per request, `due` ascending. Closed loop: `due`
  // is ignored and requests go out as window slots free up.
  std::vector<Outcome> plan;
  int window = 0;                 // > 0 selects the closed loop
  std::int64_t stop_sending = 0;  // closed loop: no new request after this
  std::int64_t give_up = 0;       // unanswered requests fail after this
};

struct LoadTarget {
  std::string socket;
  const std::vector<core::FunctionFeature>* pool = nullptr;
  int k = 10;
  int index_size = 0;   // expected hits per reply: min(k, index_size)
  int check_every = 0;  // keep hits of queries with query % check_every == 0
};

// Poisson arrivals at `rate` per second over [start, start + seconds),
// consuming pool entries from `*next_query` on.
std::vector<Outcome> PoissonPlan(util::Rng* rng, double rate,
                                 std::int64_t start, double seconds,
                                 int* next_query);

// Runs `phase` over `connections` connections (request i goes to
// connection i % connections; a closed-loop window is split evenly).
// Returns every planned request's outcome; requests never sent keep
// received == 0. Connection failures land in `error`.
std::vector<Outcome> RunPhase(const LoadTarget& target, const Phase& phase,
                              int connections, std::string* error);

// Outcome summaries.
std::vector<double> Latencies(const std::vector<Outcome>& outcomes);
std::vector<double> LagsMs(const std::vector<Outcome>& outcomes);
std::int64_t Failures(const std::vector<Outcome>& outcomes);

bool SameHits(const std::vector<core::SearchHit>& a,
              const std::vector<core::SearchHit>& b);

// Bench-side spans of each sent request: a "topk" root from the scheduled
// time, with client.put / client.wire / client.get children.
void RecordSpans(const std::vector<Outcome>& outcomes, SpanBuffer* spans);

}  // namespace asteria::perf
