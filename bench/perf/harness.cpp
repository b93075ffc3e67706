#include "harness.h"

#include <dirent.h>
#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "serve/client.h"
#include "util/metrics.h"

namespace asteria::perf {

core::AsteriaConfig BenchModelConfig() { return core::AsteriaConfig{}; }

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(std::int64_t nanos) {
  const std::int64_t now = NowNanos();
  if (nanos > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos - now));
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Metric MakeMetric(const std::string& name, const std::string& unit,
                  double value, const std::vector<double>& samples) {
  Metric metric;
  metric.name = name;
  metric.unit = unit;
  metric.value = value;
  metric.p25 = Percentile(samples, 0.25);
  metric.median = Percentile(samples, 0.5);
  metric.p75 = Percentile(samples, 0.75);
  metric.n = samples.size();
  return metric;
}

void RunResult::Fail(const std::string& why) {
  // Keep the first few; a systematic mismatch would otherwise flood output.
  if (errors.size() < 20) errors.push_back(why);
}

const std::vector<LayerMetricSpec>& LayerMetrics() {
  static const std::vector<LayerMetricSpec> kLayers = {
      {"serve.client_codec_us.p50", "us", "query-topk: p50_ms"},
      {"serve.wire_us.p50", "us", "query-topk: p50_ms"},
      {"serve.queue_wait_us.p50", "us", "query-topk: topk_p99_ms.200qps"},
      {"serve.queue_wait_us.p99", "us", "query-topk: topk_p99_ms.200qps"},
      {"serve.batch_queries.mean", "count", "query-topk: rate_per_s"},
      {"serve.reply_us.p50", "us", "query-topk: p50_ms"},
      {"serve.reload_ms.p50", "ms", "ingest-arrivals: p50_ms"},
      {"serve.bg_queue_wait_us.p95", "us",
       "ingest-arrivals: bg_topk_p95_ms"},
      {"core.encode.query_us.p50", "us", "query-topk: p50_ms"},
      {"core.encode.us_per_fn", "us", "offline-encode: rate_per_s"},
      {"core.encode.ms_per_arrival", "ms", "ingest-arrivals: p50_ms"},
      {"core.search.sweep_us.p50", "us", "query-topk: p50_ms, rate_per_s"},
      {"core.search.scored_frac", "ratio", "query-topk: rate_per_s"},
      {"core.search.ns_per_scored_pair", "ns", "query-topk: rate_per_s"},
      {"decompiler.us_per_fn", "us", "offline-encode: rate_per_s"},
      {"decompiler.ms_per_arrival", "ms", "ingest-arrivals: p50_ms"},
      {"ingest.local_ms.p50", "ms", "ingest-arrivals: p50_ms"},
      {"ingest.delta_ms.p50", "ms",
       "ingest-arrivals: arrival_to_alert_ms.p50"},
      {"ingest.other_ms_per_image", "ms", "offline-encode: rate_per_s"},
      {"ingest.compact_ms", "ms", "offline-encode: rate_per_s"},
      {"ingest.shards", "count", "ingest-arrivals: tail_ms"},
      {"store.index_open_ms", "ms", "query-topk: setup_s"},
      {"store.manifest_kb", "KiB", "ingest-arrivals: tail_ms"},
      {"core.train.ns_per_node", "ns", "train-epoch: rate_per_s"},
      {"core.train.forward_share", "ratio", "train-epoch: rate_per_s"},
      {"core.train.skipped_pairs", "count", "train-epoch: failed"},
      {"gen.lag_ms.p99", "ms", "validity: every open-loop phase"},
  };
  return kLayers;
}

// -- Spans ------------------------------------------------------------------

int SpanBuffer::Add(const char* name, std::int64_t start, std::int64_t end,
                    int parent, std::uint64_t trace_id) {
  spans_.push_back(Span{name, start, end, parent, trace_id});
  return static_cast<int>(spans_.size()) - 1;
}

bool WriteSpans(const std::string& path, const SpanBuffer& buffer,
                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = path + ": " + std::strerror(errno);
    return false;
  }
  const std::vector<Span>& spans = buffer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"trace_id\":\"%016llx\"}\n",
                 i, s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent,
                 static_cast<unsigned long long>(s.trace_id));
  }
  const bool ok = std::fclose(f) == 0;
  if (!ok) *error = path + ": write failed";
  return ok;
}

// -- Program totals -----------------------------------------------------------

ProgramTotals ProgramTotals::Read() {
  const util::MetricsSnapshot snapshot = util::SnapshotMetrics();
  ProgramTotals totals;
  for (const util::StageTiming& span : snapshot.spans) {
    totals.span_nanos[span.stage] = span.total_nanos;
    totals.span_count[span.stage] = span.count;
  }
  for (const util::CounterValue& counter : snapshot.counters) {
    totals.counters[counter.name] = counter.value;
  }
  return totals;
}

namespace {
std::uint64_t Lookup(const std::map<std::string, std::uint64_t>& map,
                     const std::string& key) {
  auto it = map.find(key);
  return it == map.end() ? 0 : it->second;
}
}  // namespace

std::uint64_t ProgramTotals::Nanos(const std::string& span) const {
  return Lookup(span_nanos, span);
}
std::uint64_t ProgramTotals::Count(const std::string& span) const {
  return Lookup(span_count, span);
}
std::uint64_t ProgramTotals::Counter(const std::string& name) const {
  return Lookup(counters, name);
}

// -- Daemon -----------------------------------------------------------------

Daemon::~Daemon() {
  std::string ignored;
  Stop(&ignored);
}

bool Daemon::Start(const std::string& bin, const std::string& socket,
                   const std::vector<std::string>& args,
                   const std::string& log_path, double* ready_seconds,
                   std::string* error) {
  std::vector<std::string> argv_strings = {bin, "--socket=" + socket};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  ::unlink(socket.c_str());
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = log_path + ": " + std::strerror(errno);
    return false;
  }
  const pid_t parent = ::getpid();
  const std::int64_t spawned = NowNanos();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(log_fd);
    return false;
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;
  socket_ = socket;
  const std::int64_t give_up = spawned + 60'000'000'000LL;
  while (NowNanos() < give_up) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "asteria-serve exited during start-up (see " + log_path + ")";
      return false;
    }
    serve::Client client;
    std::string ignored;
    if (client.Connect(socket_, &ignored, 2) && client.Ping(&ignored)) {
      *ready_seconds = static_cast<double>(NowNanos() - spawned) * 1e-9;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::string stop_error;
  Stop(&stop_error);
  *error = "asteria-serve did not answer a ping within 60 s";
  return false;
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool Daemon::Stop(std::string* error) {
  if (pid_ <= 0) return true;
  {
    serve::Client client;
    std::string ignored;
    if (client.Connect(socket_, &ignored, 5)) client.Shutdown(&ignored);
  }
  bool clean = false;
  const std::int64_t give_up = NowNanos() + 10'000'000'000LL;
  int status = 0;
  while (NowNanos() < give_up) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      pid_ = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    *error = "asteria-serve ignored shutdown; killed";
    return false;
  }
  if (!clean) *error = "asteria-serve exited uncleanly";
  return clean;
}

bool StartServing(const Options& opt, const std::string& index, Daemon* daemon,
                  std::vector<double>* setups, std::string* error) {
  std::vector<std::string> args = {"--index=" + index, "--workers=2"};
  if (opt.traced) {
    args.insert(args.end(), {"--slow_query_ms=0", "--slow_log=slow.log",
                             "--metrics_out=daemon-metrics.json"});
  }
  for (int i = 0; i < 3; ++i) {
    if (i > 0 && !daemon->Stop(error)) return false;
    double ready = 0.0;
    if (!daemon->Start(opt.serve_bin, "serve.sock", args, "daemon.log", &ready,
                       error)) {
      return false;
    }
    setups->push_back(ready);
  }
  return true;
}

double SelfPeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ResetSelfPeakRss() {
  // Hand free heap pages (freed inputs, earlier phases) back first, so the
  // baseline does not depend on where the allocator left them.
  ::malloc_trim(0);
  // "5" resets VmHWM to the current RSS (proc(5), clear_refs).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

int ConnectSocket(const std::string& path, int timeout_ms, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = path + ": socket path too long";
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = path + ": connect: " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return fd;
}

// -- Files and host -----------------------------------------------------------

bool RemoveTree(const std::string& path) {
  struct stat st {};
  if (::lstat(path.c_str(), &st) != 0) return errno == ENOENT;
  if (S_ISDIR(st.st_mode)) {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) return false;
    std::vector<std::string> names;
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(dir);
    bool ok = true;
    for (const std::string& name : names) ok &= RemoveTree(path + "/" + name);
    return ok && ::rmdir(path.c_str()) == 0;
  }
  return ::unlink(path.c_str()) == 0;
}

bool MakeDirs(const std::string& path) {
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    const std::string prefix = path.substr(0, pos);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

bool ReadFile(const std::string& path, std::vector<std::uint8_t>* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  bytes->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  return !in.bad();
}

std::int64_t FileSize(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<std::int64_t>(st.st_size);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

int HostThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace asteria::perf
