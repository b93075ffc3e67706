#include "load.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "harness.h"
#include "serve/protocol.h"
#include "util/request_log.h"

namespace asteria::perf {
namespace {

bool WellFormed(const std::vector<core::SearchHit>& hits, int expected,
                int index_size) {
  if (static_cast<int>(hits.size()) != expected) return false;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].index < 0 || hits[i].index >= index_size ||
        !std::isfinite(hits[i].score)) {
      return false;
    }
    if (i > 0 && hits[i].score > hits[i - 1].score) return false;
  }
  return true;
}

// One connection's share of a phase. `slots` are indices into `outcomes`.
void Drive(const LoadTarget& target, const Phase& phase,
           const std::vector<std::size_t>& slots, int window,
           std::vector<Outcome>* outcomes, std::string* error) {
  const int fd = ConnectSocket(target.socket, 10000, error);
  if (fd < 0) return;
  const int expected = std::min(target.k, target.index_size);
  const bool closed = window > 0;
  std::size_t next = 0;  // next slot to send
  int outstanding = 0;
  // Correlation id = position in `slots` + 1.
  const auto send = [&](std::size_t pos) -> bool {
    Outcome& o = (*outcomes)[slots[pos]];
    o.sent = NowNanos();
    if (closed) o.due = o.sent;
    store::ChunkBuilder payload;
    serve::PutQuery(pos + 1, (*target.pool)[static_cast<std::size_t>(o.query)],
                    target.k, 0.0, serve::FrameType::kTopK, &payload);
    o.put_nanos = NowNanos() - o.sent;
    o.trace_id = util::MintTraceId();
    std::string write_error;
    const bool ok = serve::WriteFrame(fd, serve::FrameType::kTopK, payload,
                                      &write_error, 0, o.trace_id);
    o.written = NowNanos();
    if (!ok) *error = "send: " + write_error;
    return ok;
  };
  bool broken = false;
  while (!broken) {
    const std::int64_t now = NowNanos();
    while (next < slots.size() &&
           (closed ? outstanding < window && now < phase.stop_sending
                   : (*outcomes)[slots[next]].due <= now)) {
      if (!send(next)) {
        broken = true;
        break;
      }
      ++next;
      ++outstanding;
    }
    if (broken) break;
    const bool sending_done =
        next == slots.size() || (closed && now >= phase.stop_sending);
    if (sending_done && outstanding == 0) break;
    if (now >= phase.give_up) {
      *error = "gave up waiting for " + std::to_string(outstanding) +
               " replies";
      break;
    }
    std::int64_t wait = std::min<std::int64_t>(phase.give_up - now,
                                               100'000'000);
    if (!closed && next < slots.size()) {
      wait = std::min(wait, (*outcomes)[slots[next]].due - now);
    }
    pollfd pfd{fd, POLLIN, 0};
    timespec ts{};
    wait = std::max<std::int64_t>(wait, 0);
    ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait % 1'000'000'000);
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready <= 0) continue;
    serve::FrameType type{};
    std::vector<std::uint8_t> reply;
    std::string read_error;
    std::uint64_t trace_id = 0;
    const serve::ReadStatus status = serve::ReadFrame(
        fd, &type, &reply, &read_error, nullptr, 0, &trace_id);
    const std::int64_t received = NowNanos();
    if (status != serve::ReadStatus::kFrame) {
      *error = "read: " + (status == serve::ReadStatus::kClosed
                               ? std::string("daemon closed the connection")
                               : read_error);
      break;
    }
    std::uint64_t id = 0;
    std::vector<core::SearchHit> hits;
    std::string parse_error;
    bool parsed = false;
    std::int64_t get_nanos = 0;
    if (type == serve::FrameType::kHits) {
      const std::int64_t get_start = NowNanos();
      parsed = serve::GetHits(reply, &id, &hits, &parse_error);
      get_nanos = NowNanos() - get_start;
    } else if (type == serve::FrameType::kError) {
      std::string message;
      serve::GetError(reply, &id, &message, &parse_error);
      *error = "daemon error: " + message;
      if (id == 0) break;
    } else {
      serve::GetControl(reply, &id, &parse_error);
    }
    if (id == 0 || id > next) {
      *error = "reply for unknown correlation id " + std::to_string(id);
      break;
    }
    Outcome& o = (*outcomes)[slots[id - 1]];
    if (o.received != 0) {
      *error = "duplicate reply for correlation id " + std::to_string(id);
      break;
    }
    o.received = received;
    o.get_nanos = get_nanos;
    o.shed = type == serve::FrameType::kOverloaded;
    o.ok = parsed && trace_id == o.trace_id &&
           WellFormed(hits, expected, target.index_size);
    if (o.ok && target.check_every > 0 && o.query % target.check_every == 0) {
      o.hits = std::move(hits);
    }
    --outstanding;
  }
  ::close(fd);
}

}  // namespace

std::vector<Outcome> PoissonPlan(util::Rng* rng, double rate,
                                 std::int64_t start, double seconds,
                                 int* next_query) {
  std::vector<Outcome> plan;
  const double end = seconds;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng->NextDouble()) / rate;
    if (t >= end) break;
    Outcome o;
    o.due = start + static_cast<std::int64_t>(t * 1e9);
    o.query = (*next_query)++;
    plan.push_back(o);
  }
  return plan;
}

std::vector<Outcome> RunPhase(const LoadTarget& target, const Phase& phase,
                              int connections, std::string* error) {
  std::vector<Outcome> outcomes = phase.plan;
  std::vector<std::vector<std::size_t>> slots(
      static_cast<std::size_t>(connections));
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    slots[i % static_cast<std::size_t>(connections)].push_back(i);
  }
  std::vector<std::string> errors(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    const int window =
        phase.window > 0 ? std::max(1, phase.window / connections) : 0;
    threads.emplace_back(Drive, std::cref(target), std::cref(phase),
                         std::cref(slots[static_cast<std::size_t>(c)]), window,
                         &outcomes, &errors[static_cast<std::size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty() && error->empty()) *error = e;
  }
  if (phase.window > 0) {
    // Closed loop: requests the window never reached were not attempted.
    outcomes.erase(std::remove_if(outcomes.begin(), outcomes.end(),
                                  [](const Outcome& o) { return o.sent == 0; }),
                   outcomes.end());
  }
  return outcomes;
}

std::vector<double> Latencies(const std::vector<Outcome>& outcomes) {
  std::vector<double> values;
  for (const Outcome& o : outcomes) {
    if (o.ok) values.push_back(o.latency_ms());
  }
  return values;
}

std::vector<double> LagsMs(const std::vector<Outcome>& outcomes) {
  std::vector<double> values;
  for (const Outcome& o : outcomes) {
    if (o.sent != 0) values.push_back(static_cast<double>(o.sent - o.due) * 1e-6);
  }
  return values;
}

std::int64_t Failures(const std::vector<Outcome>& outcomes) {
  std::int64_t failed = 0;
  for (const Outcome& o : outcomes) failed += o.ok ? 0 : 1;
  return failed;
}

bool SameHits(const std::vector<core::SearchHit>& a,
              const std::vector<core::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].name != b[i].name ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void RecordSpans(const std::vector<Outcome>& outcomes, SpanBuffer* spans) {
  for (const Outcome& o : outcomes) {
    if (o.sent == 0) continue;
    const std::int64_t end =
        o.received != 0 ? o.received + o.get_nanos : o.written;
    const int root = spans->Add("topk", o.due, end, -1, o.trace_id);
    spans->Add("client.put", o.sent, o.sent + o.put_nanos, root, o.trace_id);
    if (o.received != 0) {
      spans->Add("client.wire", o.sent + o.put_nanos, o.received, root,
                 o.trace_id);
      spans->Add("client.get", o.received, end, root, o.trace_id);
    }
  }
}

}  // namespace asteria::perf
