// serve_cli — the conversion-as-a-service daemon.
//
// Runs the tp::serve::Server transport loop: accepts line-delimited JSON
// jobs (see src/serve/protocol.hpp) over a Unix-domain socket, a loopback
// TCP port, and/or a job-file drop directory, answers them from the
// content-addressed result cache when possible, and executes the misses
// as coalesced waves on the shared executor.
//
//   $ ./examples/serve_cli --drop-dir /tmp/tp-jobs --cache-dir /tmp/tp-cache
//   $ ./examples/serve_cli --socket /tmp/tp.sock --threads 8
//   $ ./examples/serve_cli --tcp-port 7311
//
//   $ echo '{"id":"j1","type":"convert","benchmark":"s5378"}' > jobs/j1.job
//     (the answer appears in jobs/j1.result)
//
// Shutdown: a {"type":"shutdown"} job exits 0 after draining the
// in-flight wave and flushing the disk cache. SIGINT/SIGTERM do the same
// drain-and-flush but exit 130, so supervisors can tell a requested stop
// from an external one. Completed results are never lost either way.
//
// Exit status: 0 shutdown job, 2 usage error, 130 signal.
#include <atomic>
#include <csignal>
#include <cstdio>

#include "src/serve/server.hpp"
#include "src/util/argparse.hpp"

using namespace tp;

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  std::size_t memory_entries = 1024, poll_ms = 50, tcp_port = 0;

  util::ArgParser parser(
      "serve_cli", "long-lived conversion service: line-delimited JSON "
                   "jobs over a socket or a drop directory, answered "
                   "through a content-addressed result cache");
  parser.add_value("--socket", &options.socket_path,
                   "Unix-domain socket path (default off)", "PATH");
  parser.add_value("--tcp-port", &tcp_port,
                   "loopback TCP port (default off)");
  parser.add_value("--drop-dir", &options.drop_dir,
                   "job-file drop directory: *.job in, *.result out "
                   "(default off)",
                   "DIR");
  parser.add_value("--cache-dir", &options.cache.dir,
                   "persistent cache directory (default off: memory only)",
                   "DIR");
  parser.add_value("--cache-entries", &memory_entries,
                   "in-memory cache entries before LRU eviction "
                   "(default 1024)");
  parser.add_value("--threads", &options.threads,
                   "worker threads (default TP_THREADS or hardware)");
  parser.add_value("--poll-ms", &poll_ms,
                   "transport poll granularity in ms (default 50)");
  parser.parse_or_exit(argc, argv);

  options.cache.memory_entries = memory_entries;
  options.tcp_port = static_cast<int>(tcp_port);
  options.poll_ms = static_cast<int>(poll_ms);
  options.stop = &g_stop;
  if (options.socket_path.empty() && options.tcp_port == 0 &&
      options.drop_dir.empty()) {
    std::fprintf(stderr,
                 "need at least one transport: --socket, --tcp-port, or "
                 "--drop-dir\n%s",
                 parser.usage().c_str());
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us

  try {
    serve::Server server(options);
    std::printf("serve_cli: %zu worker thread(s)%s%s%s%s\n",
                server.executor().thread_count(),
                options.socket_path.empty() ? "" : ", socket ",
                options.socket_path.c_str(),
                options.drop_dir.empty() ? "" : ", drop dir ",
                options.drop_dir.c_str());
    std::fflush(stdout);
    const int rc = server.serve();

    const serve::ServerCounters c = server.counters();
    std::printf(
        "serve_cli: %s after %llu request(s) in %llu wave(s); "
        "%llu cells (%llu cached, %llu deduped, %llu computed, %llu "
        "failed); cache hit rate %.1f%%\n",
        rc == 0 ? "shutdown" : "stopped by signal",
        static_cast<unsigned long long>(c.requests),
        static_cast<unsigned long long>(c.waves),
        static_cast<unsigned long long>(c.cells),
        static_cast<unsigned long long>(c.cells_cached),
        static_cast<unsigned long long>(c.cells_deduped),
        static_cast<unsigned long long>(c.cells_computed),
        static_cast<unsigned long long>(c.cells_failed),
        100.0 * c.cache.hit_rate());
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "serve_cli: %s\n", e.what());
    return 2;
  }
}
