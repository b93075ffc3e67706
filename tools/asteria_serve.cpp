// asteria-serve — long-lived similarity query daemon (docs/SERVING.md).
//
//   asteria-serve --socket=PATH --index=SNAPSHOT [--weights=FILE]
//                 [--workers=N] [--batch_max=N] [--queue=N] [--threads=N]
//                 [--queue_high_water=N] [--io_timeout_ms=N] [--max_conns=N]
//                 [--drain_timeout_ms=N] [--failpoints=SPEC]
//                 [--log_level=LEVEL]
//                 [--metrics_out=FILE] [--slow_query_ms=N] [--slow_log=FILE]
//                 [--request_log_out=FILE]
//
// Loads the model weights and the index once — --index may be a monolithic
// INDX snapshot or a MANI shard manifest (sharded results are bitwise
// identical) — then answers TopK / AboveThreshold queries over the
// Unix-domain socket until a kShutdown control frame (asteria-cli ctl
// shutdown), SIGTERM, or SIGINT stops it. SIGHUP (or asteria-cli ctl
// reload) re-loads --index and atomically swaps the new snapshot in
// without blocking in-flight queries; `asteria-cli ingest --socket=...`
// sends that reload after every publish, so new firmware becomes
// queryable without a restart.
//
// Flags go through util::Flags, so every numeric value is parsed strictly
// (trailing garbage, overflow, and non-finite input are errors, never
// silently clamped). --metrics_out writes the serve.* counters, latency
// histograms, and span profile as JSON when the daemon exits;
// --request_log_out dumps the wide-event request ring the same way
// (docs/OBSERVABILITY.md "Per-request tracing"). --slow_query_ms arms the
// live slow-query capture: answered queries at or past the threshold spill
// to --slow_log as the daemon runs.
#include <csignal>
#include <cstdio>
#include <string>

#include "core/asteria.h"
#include "serve/server.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/request_log.h"

namespace {

asteria::serve::Server* g_server = nullptr;

// Handlers only touch Server's atomic flags (async-signal-safe stores);
// the accept loop acts on them within one poll tick.
void OnStopSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();
}

void OnReloadSignal(int) {
  if (g_server != nullptr) g_server->RequestReload();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace asteria;

  util::Flags flags;
  flags.DefineString("socket", "", "Unix-domain socket path to listen on");
  flags.DefineString("index", "",
                     "INDX snapshot or MANI shard manifest to serve");
  flags.DefineString("weights", "",
                     "model checkpoint (untrained weights when omitted)");
  flags.DefineInt("workers", 1, "dispatch worker threads");
  flags.DefineInt("batch_max", 16,
                  "max queries coalesced into one scoring pass");
  flags.DefineInt("queue", 256, "bounded request queue capacity");
  flags.DefineInt("threads", 1, "scoring threads inside a batch");
  flags.DefineInt("queue_high_water", 0,
                  "shed queries (kOverloaded) once the queue holds this many "
                  "(0 = shed only at --queue capacity)");
  flags.DefineInt("io_timeout_ms", 5000,
                  "max ms between a frame's first and last byte, and the "
                  "socket send timeout (0 = unbounded)");
  flags.DefineInt("max_conns", 64,
                  "connection cap; over-limit connects get kOverloaded then "
                  "close (0 = unlimited)");
  flags.DefineInt("drain_timeout_ms", 2000,
                  "on shutdown, queued queries get this long to finish "
                  "before the remainder is answered kShuttingDown");
  flags.DefineString("failpoints", "",
                     "fault-injection spec, e.g. serve.read=once");
  flags.DefineString("log_level", "info", "debug|info|warn|error");
  flags.DefineString("metrics_out", "",
                     "write the metrics snapshot JSON here on exit");
  flags.DefineInt("slow_query_ms", -1,
                  "spill answered queries at or past this latency to "
                  "--slow_log (0 = every answered query; negative = off)");
  flags.DefineString("slow_log", "",
                     "slow-query capture file (CRC-framed SLOW lines; "
                     "required when --slow_query_ms >= 0)");
  flags.DefineString("request_log_out", "",
                     "dump the wide-event request ring here on exit");
  if (!flags.Parse(argc, argv)) return 2;

  const std::string socket_path = flags.GetString("socket");
  const std::string index_path = flags.GetString("index");
  if (socket_path.empty() || index_path.empty()) {
    std::fprintf(stderr, "asteria-serve: --socket and --index are required\n%s",
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (flags.GetInt("workers") < 1 || flags.GetInt("batch_max") < 1 ||
      flags.GetInt("queue") < 1 || flags.GetInt("threads") < 1) {
    std::fprintf(stderr,
                 "asteria-serve: --workers, --batch_max, --queue, and "
                 "--threads must be >= 1\n");
    return 2;
  }
  if (flags.GetInt("queue_high_water") < 0 ||
      flags.GetInt("io_timeout_ms") < 0 || flags.GetInt("max_conns") < 0 ||
      flags.GetInt("drain_timeout_ms") < 0) {
    std::fprintf(stderr,
                 "asteria-serve: --queue_high_water, --io_timeout_ms, "
                 "--max_conns, and --drain_timeout_ms must be >= 0\n");
    return 2;
  }
  if (flags.GetInt("slow_query_ms") >= 0 && flags.GetString("slow_log").empty()) {
    std::fprintf(stderr,
                 "asteria-serve: --slow_query_ms needs --slow_log=FILE to "
                 "spill into\n");
    return 2;
  }
  util::LogLevel level = util::LogLevel::kInfo;
  if (!util::ParseLogLevel(flags.GetString("log_level"), &level)) {
    std::fprintf(stderr, "bad --log_level '%s' (debug|info|warn|error)\n",
                 flags.GetString("log_level").c_str());
    return 2;
  }
  util::SetLogLevel(level);
  if (!flags.GetString("failpoints").empty()) {
    std::string error;
    if (!util::ConfigureFailpoints(flags.GetString("failpoints"), &error)) {
      std::fprintf(stderr, "bad --failpoints spec: %s\n", error.c_str());
      return 2;
    }
  }

  core::AsteriaModel model{core::AsteriaConfig{}};
  if (!flags.GetString("weights").empty()) {
    if (!model.Load(flags.GetString("weights"))) {
      std::fprintf(stderr, "cannot load weights from %s\n",
                   flags.GetString("weights").c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr,
                 "warning: serving with UNTRAINED weights; the snapshot must "
                 "have been built by the same untrained configuration\n");
  }

  serve::ServerConfig config;
  config.socket_path = socket_path;
  config.index_path = index_path;
  config.workers = static_cast<int>(flags.GetInt("workers"));
  config.batch_max = static_cast<int>(flags.GetInt("batch_max"));
  config.queue_capacity = static_cast<int>(flags.GetInt("queue"));
  config.score_threads = static_cast<int>(flags.GetInt("threads"));
  config.queue_high_water = static_cast<int>(flags.GetInt("queue_high_water"));
  config.io_timeout_ms = static_cast<int>(flags.GetInt("io_timeout_ms"));
  config.max_conns = static_cast<int>(flags.GetInt("max_conns"));
  config.drain_timeout_ms = static_cast<int>(flags.GetInt("drain_timeout_ms"));
  config.slow_query_ms = static_cast<int>(flags.GetInt("slow_query_ms"));
  config.slow_log_path = flags.GetString("slow_log");

  serve::Server server(model, config);
  std::string error;
  int rc = 0;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "asteria-serve: %s\n", error.c_str());
    rc = 1;
  } else {
    g_server = &server;
    std::signal(SIGTERM, OnStopSignal);
    std::signal(SIGINT, OnStopSignal);
    std::signal(SIGHUP, OnReloadSignal);
    server.Run();
    g_server = nullptr;
  }
  if (!flags.GetString("metrics_out").empty()) {
    if (!util::SnapshotMetrics().WriteJson(flags.GetString("metrics_out"),
                                           &error)) {
      std::fprintf(stderr, "cannot write --metrics_out: %s\n", error.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!flags.GetString("request_log_out").empty()) {
    if (!util::WriteRequestLogFile(flags.GetString("request_log_out"),
                                   util::GlobalRequestLog().Snapshot(),
                                   &error)) {
      std::fprintf(stderr, "cannot write --request_log_out: %s\n",
                   error.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
