// Conversion-as-a-service server loop.
//
// The Server turns the batch run_matrices engine into a long-lived
// service. Layering:
//
//  - run_wave(): the transport-free core. Takes a batch of request lines,
//    parses them, answers status/shutdown inline, content-addresses every
//    conversion cell (CacheKey over netlist hash, style, options hash,
//    workload, cycles, seed, lanes), serves hits from the ResultCache,
//    deduplicates identical misses within the wave, runs the remaining
//    cells as one wave of single-cell RunPlans on the shared
//    util::Executor, each flow whole on one thread (flow::run_task — the
//    exact code path of the batch engine, so a served result is
//    bit-identical to a matrix run), stores fresh payloads back, and
//    returns one Outcome per request with per-request latency. The
//    throughput bench drives this directly.
//
//  - serve(): the transport loop. poll()s a Unix socket, a loopback TCP
//    socket, and/or a job-file drop directory; complete lines from any
//    transport are coalesced into the next wave; responses stream back to
//    the socket that sent them or into "<job>.result" files (written via
//    temp + atomic rename). Returns 0 after a shutdown job, 130 when the
//    external stop flag aborted the loop — after draining the in-flight
//    wave and flushing the cache either way, so completed results are
//    never lost.
//
// Failure containment: a malformed line costs one error response; a
// failing flow costs one failed cell (MatrixResult::error); a corrupt
// cache entry is evicted and recomputed. Nothing short of plan-level API
// misuse throws out of the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/cache.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/executor.hpp"
#include "src/util/log.hpp"

namespace tp::serve {

struct ServerOptions {
  CacheOptions cache;
  /// Worker threads for the shared executor; 0 = TP_THREADS/hardware.
  std::size_t threads = 0;
  /// Job-file drop directory ("" disables). Files named *.job holding one
  /// request line each (or several); answered in "<stem>.result".
  std::string drop_dir;
  /// Unix-domain socket path ("" disables).
  std::string socket_path;
  /// Loopback TCP port (0 disables). Binds 127.0.0.1 only.
  int tcp_port = 0;
  /// serve() poll granularity.
  int poll_ms = 50;
  /// External abort flag (e.g. set from a SIGTERM handler; not owned).
  /// Checked between waves and wired into RunPlan::cancel so queued tasks
  /// of an in-flight wave fail fast while running ones drain.
  const std::atomic<bool>* stop = nullptr;
};

struct ServerCounters {
  std::uint64_t requests = 0;    // lines received
  std::uint64_t completed = 0;   // ok responses
  std::uint64_t failed = 0;      // error responses (incl. malformed)
  std::uint64_t malformed = 0;   // unparseable lines
  std::uint64_t cells = 0;       // conversion cells executed or served
  std::uint64_t cells_cached = 0;    // served from cache
  std::uint64_t cells_deduped = 0;   // served from an in-wave duplicate
  std::uint64_t cells_computed = 0;  // actually ran the flow
  std::uint64_t cells_failed = 0;    // flow errors (per-cell)
  std::uint64_t waves = 0;
  std::uint64_t bytes_out = 0;
  double busy_s = 0;  // wall time spent inside run_wave
  CacheStats cache;
};

/// One answered request line.
struct Outcome {
  std::string line;   // the response, newline excluded
  bool ok = false;
  bool cached = false;     // served without running a flow (cache or dedupe)
  bool shutdown = false;   // this was an accepted shutdown request
  double latency_s = 0;    // intake-to-response within the wave
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Executes one batch of request lines; returns one Outcome per line in
  /// input order.
  std::vector<Outcome> run_wave(const std::vector<std::string>& lines);

  /// Convenience single-request wave.
  Outcome handle_line(const std::string& line);

  /// Transport loop (sockets + drop dir) until shutdown/stop; see file
  /// comment for the exit protocol.
  int serve();

  [[nodiscard]] ServerCounters counters() const;
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_requested_;
  }
  ResultCache& cache() { return cache_; }
  util::Executor& executor() { return executor_; }

  /// The status-response JSON object (exposed for tests).
  [[nodiscard]] std::string status_json() const;

 private:
  struct Cell;  // one content-addressed conversion unit of work

  [[nodiscard]] bool stop_requested() const {
    return options_.stop != nullptr &&
           options_.stop->load(std::memory_order_relaxed);
  }
  CacheKey make_key(const Request& request, flow::DesignStyle style,
                    std::uint64_t netlist_hash,
                    const flow::FlowOptions& options) const;

  ServerOptions options_;
  ResultCache cache_;
  util::Executor executor_;
  bool shutdown_requested_ = false;
  Stopwatch uptime_;

  mutable std::mutex mutex_;  // guards counters_
  ServerCounters counters_;
};

}  // namespace tp::serve
