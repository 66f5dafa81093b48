#include "src/serve/server.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/flow/serialize.hpp"
#include "src/util/json.hpp"
#include "src/util/strcat.hpp"

namespace tp::serve {

using flow::MatrixResult;
using flow::MatrixTask;
using flow::RunPlan;

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      executor_(options_.threads) {}

Server::~Server() { cache_.flush(); }

namespace {

// The cache's content address of a built-in design: the stored netlist's
// netlist_hash(). An unknown name leaves `error` set and returns 0.
std::uint64_t benchmark_content_hash(const std::string& name,
                                     std::string* error) {
  try {
    return circuits::stored_benchmark(name).content_hash;
  } catch (const std::exception& e) {
    *error = e.what();
    return 0;
  }
}

}  // namespace

CacheKey Server::make_key(const Request& request, flow::DesignStyle style,
                          std::uint64_t content_hash,
                          const flow::FlowOptions& options) const {
  CacheKey key;
  key.netlist_hash = content_hash;
  key.style = style;
  key.options_hash = flow::options_hash(options);
  key.workload = request.spec.workload;
  key.cycles = request.spec.cycles;
  key.seed = request.spec.seed;
  key.lanes = request.spec.lanes;
  return key;
}

// One content-addressed conversion unit inside a wave.
struct Server::Cell {
  CacheKey key;
  bool addressable = false;  // false: unknown benchmark, no cache traffic
  std::shared_ptr<RunPlan> plan;  // single-cell plan (shared with lambda)
  MatrixTask task;
  std::size_t primary = SIZE_MAX;  // dedupe target, SIZE_MAX = primary
  std::future<MatrixResult> future;
  std::string payload;
  std::string error;  // nonempty when the flow failed
  bool cached = false;
  double done_at = 0;  // seconds from wave start when payload was ready
};

std::vector<Outcome> Server::run_wave(const std::vector<std::string>& lines) {
  Stopwatch wave;
  struct Pending {
    Request request;
    bool parsed = false;
    std::string parse_error;
    std::vector<std::size_t> cells;  // indices into `cells`
    double parsed_at = 0;
  };
  std::vector<Pending> pending(lines.size());
  std::vector<Cell> cells;
  std::unordered_map<std::string, std::size_t> dedupe;  // digest hex -> cell

  // Parse every line and expand conversion requests into cells.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Pending& p = pending[i];
    p.parsed = parse_request(lines[i], &p.request, &p.parse_error);
    p.parsed_at = wave.seconds();
    if (!p.parsed) continue;
    const Request& req = p.request;
    if (req.type == JobType::kStatus || req.type == JobType::kShutdown) {
      continue;
    }
    flow::FlowOptions options;
    flow::options_from_preset(req.spec.preset, &options);  // parse validated
    options.check_rules = req.spec.check_rules;
    options.check_analysis = req.spec.check_analysis;
    if (req.type == JobType::kLint) {
      // A lint job IS a request for the checks; forcing them here keeps the
      // cache key shared with an explicit convert+checks request.
      options.check_rules = true;
      options.check_analysis = true;
    }
    circuits::Workload workload = circuits::Workload::kPaperDefault;
    flow::workload_from_name(req.spec.workload, &workload);

    std::vector<std::pair<std::string, flow::DesignStyle>> grid;
    if (req.type == JobType::kMatrixSweep) {
      const std::vector<std::string>& names =
          req.benchmarks.empty() ? circuits::benchmark_names()
                                 : req.benchmarks;
      for (const std::string& name : names) {
        for (const flow::DesignStyle style : req.styles) {
          grid.emplace_back(name, style);
        }
      }
    } else {
      grid.emplace_back(req.benchmark, req.style);
    }

    for (const auto& [benchmark, style] : grid) {
      std::string hash_error;
      const std::uint64_t content =
          benchmark_content_hash(benchmark, &hash_error);
      Cell cell;
      cell.addressable = hash_error.empty();
      if (cell.addressable) {
        cell.key = make_key(req, style, content, options);
        const std::string hex = cell.key.digest_hex();
        auto [it, inserted] = dedupe.emplace(hex, cells.size());
        if (!inserted) {
          cell.primary = it->second;  // same computation already in wave
          p.cells.push_back(cells.size());
          cells.push_back(std::move(cell));
          continue;
        }
      }
      // Primary cell: consult the cache, otherwise plan a computation.
      if (cell.addressable) {
        if (std::optional<std::string> hit = cache_.get(cell.key)) {
          cell.payload = std::move(*hit);
          cell.cached = true;
          cell.done_at = wave.seconds();
          p.cells.push_back(cells.size());
          cells.push_back(std::move(cell));
          continue;
        }
      }
      auto plan = std::make_shared<RunPlan>();
      plan->benchmarks = {benchmark};
      plan->styles = {style};
      plan->options = options;
      plan->workload = workload;
      plan->cycles = req.spec.cycles;
      plan->stimulus_seed = req.spec.seed;
      plan->lanes = req.spec.lanes;
      plan->cancel = options_.stop;
      cell.plan = plan;
      cell.task = plan->tasks().front();
      p.cells.push_back(cells.size());
      cells.push_back(std::move(cell));
    }
  }

  // Submit every primary miss as one executor wave.
  for (Cell& cell : cells) {
    if (cell.plan == nullptr) continue;
    std::shared_ptr<RunPlan> plan = cell.plan;
    MatrixTask task = cell.task;
    cell.future = executor_.submit(
        [plan, task]() { return flow::run_task(*plan, task); });
  }

  // Join in submission order, serializing and caching as results land.
  std::size_t computed = 0;
  std::size_t failed_cells = 0;
  for (Cell& cell : cells) {
    if (!cell.future.valid()) continue;
    MatrixResult result = executor_.wait(std::move(cell.future));
    cell.payload = flow::result_payload_json(*cell.plan, result);
    cell.error = result.error;
    cell.done_at = wave.seconds();
    ++computed;
    if (!result.ok()) {
      ++failed_cells;
    } else if (cell.addressable) {
      cache_.put(cell.key, cell.payload);
    }
  }
  // Resolve dedupe references after every primary has settled.
  std::size_t deduped = 0;
  for (Cell& cell : cells) {
    if (cell.primary == SIZE_MAX) continue;
    const Cell& primary = cells[cell.primary];
    cell.payload = primary.payload;
    cell.error = primary.error;
    cell.cached = true;  // served without a flow run of its own
    cell.done_at = primary.done_at;
    ++deduped;
  }
  std::size_t cached_cells = 0;  // true cache hits (dedupe counted apart)
  for (const Cell& cell : cells) {
    if (cell.primary == SIZE_MAX && cell.cached) ++cached_cells;
  }

  // Assemble one outcome per request, in input order.
  std::vector<Outcome> outcomes(lines.size());
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t malformed = 0;
  bool saw_shutdown = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Pending& p = pending[i];
    Outcome& out = outcomes[i];
    out.latency_s = p.parsed_at;
    if (!p.parsed) {
      out.line = error_response(p.request.id, p.parse_error);
      out.ok = false;
      ++failed;
      ++malformed;
      continue;
    }
    const Request& req = p.request;
    switch (req.type) {
      case JobType::kStatus:
        out.line = status_response(req.id, status_json());
        out.ok = true;
        ++completed;
        break;
      case JobType::kShutdown: {
        util::JsonWriter w;
        w.begin_object();
        w.key("id").value(req.id);
        w.key("ok").value(true);
        w.key("shutdown").value(true);
        w.end_object();
        out.line = w.take();
        out.ok = true;
        out.shutdown = true;
        saw_shutdown = true;
        ++completed;
        break;
      }
      case JobType::kConvert:
      case JobType::kPowerEval:
      case JobType::kLint: {
        const Cell& cell = cells[p.cells.front()];
        out.latency_s = cell.done_at;
        out.cached = cell.cached;
        if (!cell.error.empty()) {
          out.line = error_response(req.id, cell.error);
          out.ok = false;
          ++failed;
          break;
        }
        const std::string payload = req.type == JobType::kPowerEval
                                        ? power_payload(cell.payload)
                                    : req.type == JobType::kLint
                                        ? lint_payload(cell.payload)
                                        : cell.payload;
        out.line = ok_response(req.id, cell.cached, payload);
        out.ok = true;
        ++completed;
        break;
      }
      case JobType::kMatrixSweep: {
        util::JsonWriter array;
        array.begin_array();
        std::size_t sweep_cached = 0;
        double last = 0;
        for (const std::size_t c : p.cells) {
          const Cell& cell = cells[c];
          array.raw(cell.payload);
          if (cell.cached) ++sweep_cached;
          if (cell.done_at > last) last = cell.done_at;
        }
        array.end_array();
        out.latency_s = last;
        out.cached = !p.cells.empty() && sweep_cached == p.cells.size();
        out.line = sweep_response(req.id, p.cells.size(), sweep_cached,
                                  array.str());
        out.ok = true;
        ++completed;
        break;
      }
    }
  }

  // Fold this wave into the service counters.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.requests += lines.size();
    counters_.completed += completed;
    counters_.failed += failed;
    counters_.malformed += malformed;
    counters_.cells += cells.size();
    counters_.cells_cached += cached_cells;
    counters_.cells_deduped += deduped;
    counters_.cells_computed += computed;
    counters_.cells_failed += failed_cells;
    counters_.waves += 1;
    counters_.busy_s += wave.seconds();
    for (const Outcome& out : outcomes) {
      counters_.bytes_out += out.line.size() + 1;
    }
  }
  if (saw_shutdown) shutdown_requested_ = true;
  cache_.flush();
  return outcomes;
}

Outcome Server::handle_line(const std::string& line) {
  return run_wave({line}).front();
}

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerCounters out = counters_;
  out.cache = cache_.stats();
  return out;
}

std::string Server::status_json() const {
  const ServerCounters c = counters();
  util::JsonWriter w;
  w.begin_object();
  w.key("uptime_s").value(uptime_.seconds());
  w.key("threads").value(executor_.thread_count());
  // Valid "backend" tokens, so clients can discover the conversion grid
  // without hardcoding the registry.
  w.key("backends").begin_array();
  for (const flow::ConversionBackend* backend : flow::backend_registry()) {
    w.value(backend->token());
  }
  w.end_array();
  w.key("requests").value(c.requests);
  w.key("completed").value(c.completed);
  w.key("failed").value(c.failed);
  w.key("malformed").value(c.malformed);
  w.key("waves").value(c.waves);
  w.key("busy_s").value(c.busy_s);
  w.key("bytes_out").value(c.bytes_out);
  w.key("cells").begin_object();
  w.key("total").value(c.cells);
  w.key("cached").value(c.cells_cached);
  w.key("deduped").value(c.cells_deduped);
  w.key("computed").value(c.cells_computed);
  w.key("failed").value(c.cells_failed);
  w.end_object();
  w.key("cache").begin_object();
  w.key("memory_hits").value(c.cache.memory_hits);
  w.key("disk_hits").value(c.cache.disk_hits);
  w.key("misses").value(c.cache.misses);
  w.key("hit_rate").value(c.cache.hit_rate());
  w.key("insertions").value(c.cache.insertions);
  w.key("evictions").value(c.cache.evictions);
  w.key("rejected").value(c.cache.rejected);
  w.key("files_written").value(c.cache.files_written);
  w.key("bytes_served").value(c.cache.bytes_served);
  w.key("memory_entries").value(cache_.memory_size());
  w.end_object();
  w.end_object();
  return w.take();
}

// --- transport loop -------------------------------------------------------

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  ::unlink(path.c_str());  // stale socket from a killed daemon
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  set_nonblocking(fd);
  return fd;
}

int listen_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  set_nonblocking(fd);
  return fd;
}

bool write_all(int fd, std::string_view data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 1000);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Publishes `content` as `path` via temp file + atomic rename.
bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = cat(path, ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) return false;
    out << content;
    if (!out.good()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

}  // namespace

int Server::serve() {
  struct Client {
    int fd = -1;
    std::string inbuf;
  };
  std::vector<int> listeners;
  if (!options_.socket_path.empty()) {
    const int fd = listen_unix(options_.socket_path);
    require(fd >= 0, cat("serve: cannot listen on unix socket ",
                         options_.socket_path));
    listeners.push_back(fd);
  }
  if (options_.tcp_port != 0) {
    const int fd = listen_tcp(options_.tcp_port);
    require(fd >= 0, cat("serve: cannot listen on 127.0.0.1:",
                         options_.tcp_port));
    listeners.push_back(fd);
  }
  if (!options_.drop_dir.empty()) {
    ::mkdir(options_.drop_dir.c_str(), 0755);  // EEXIST is fine
  }
  require(!listeners.empty() || !options_.drop_dir.empty(),
          "serve: no transport configured (socket, port, or drop dir)");

  std::vector<Client> clients;
  bool aborted = false;
  while (true) {
    if (stop_requested()) {
      aborted = true;
      break;
    }
    if (shutdown_requested_) break;

    // Wait for socket activity (or just sleep when file-only).
    std::vector<pollfd> fds;
    fds.reserve(listeners.size() + clients.size());
    for (const int fd : listeners) fds.push_back({fd, POLLIN, 0});
    for (const Client& c : clients) fds.push_back({c.fd, POLLIN, 0});
    if (!fds.empty()) {
      ::poll(fds.data(), fds.size(), options_.poll_ms);
    } else {
      ::usleep(static_cast<useconds_t>(options_.poll_ms) * 1000);
    }

    // Accept new connections.
    for (std::size_t i = 0; i < listeners.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      while (true) {
        const int fd = ::accept(listeners[i], nullptr, nullptr);
        if (fd < 0) break;
        set_nonblocking(fd);
        clients.push_back({fd, {}});
      }
    }

    // (origin, line): origin < 0 is a socket client index offset by -1,
    // origin >= 0 indexes job_files.
    std::vector<std::pair<int, std::string>> batch;
    std::vector<std::string> job_stems;

    // Drain readable clients into complete lines.
    for (std::size_t c = 0; c < clients.size(); ++c) {
      Client& client = clients[c];
      bool closed = false;
      char buf[4096];
      while (true) {
        const ssize_t n = ::read(client.fd, buf, sizeof(buf));
        if (n > 0) {
          client.inbuf.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        closed = n == 0;  // 0 = peer closed; <0 = EAGAIN or error
        break;
      }
      std::size_t start = 0;
      while (true) {
        const std::size_t nl = client.inbuf.find('\n', start);
        if (nl == std::string::npos) break;
        if (nl > start) {
          batch.emplace_back(-static_cast<int>(c) - 1,
                             client.inbuf.substr(start, nl - start));
        }
        start = nl + 1;
      }
      client.inbuf.erase(0, start);
      if (closed) {
        // Treat an unterminated final line as complete on EOF.
        if (!client.inbuf.empty()) {
          batch.emplace_back(-static_cast<int>(c) - 1, client.inbuf);
          client.inbuf.clear();
        }
        ::close(client.fd);
        client.fd = -1;
      }
    }

    // Collect dropped job files (writers must publish via rename, so a
    // visible *.job file is complete).
    if (!options_.drop_dir.empty()) {
      if (DIR* dir = ::opendir(options_.drop_dir.c_str())) {
        std::vector<std::string> names;
        while (dirent* entry = ::readdir(dir)) {
          if (ends_with(entry->d_name, ".job")) {
            names.emplace_back(entry->d_name);
          }
        }
        ::closedir(dir);
        std::sort(names.begin(), names.end());  // deterministic intake order
        for (const std::string& name : names) {
          const std::string path = cat(options_.drop_dir, "/", name);
          std::ifstream in(path, std::ios::binary);
          if (!in.good()) continue;
          std::stringstream content;
          content << in.rdbuf();
          in.close();
          ::unlink(path.c_str());
          const std::string stem =
              name.substr(0, name.size() - 4);  // strip ".job"
          job_stems.push_back(stem);
          std::string line;
          std::istringstream lines(content.str());
          while (std::getline(lines, line)) {
            if (!line.empty()) {
              batch.emplace_back(
                  static_cast<int>(job_stems.size()) - 1, line);
            }
          }
        }
      }
    }

    if (batch.empty()) {
      // Reap closed clients while idle.
      std::erase_if(clients, [](const Client& c) { return c.fd < 0; });
      continue;
    }

    std::vector<std::string> lines;
    lines.reserve(batch.size());
    for (const auto& [origin, line] : batch) lines.push_back(line);
    const std::vector<Outcome> outcomes = run_wave(lines);

    // Route responses back: sockets stream per line, job files get one
    // atomically-published "<stem>.result".
    std::vector<std::string> file_out(job_stems.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const int origin = batch[i].first;
      if (origin < 0) {
        const std::size_t c = static_cast<std::size_t>(-origin - 1);
        if (clients[c].fd >= 0) {
          write_all(clients[c].fd, cat(outcomes[i].line, "\n"));
        }
      } else {
        file_out[static_cast<std::size_t>(origin)] +=
            cat(outcomes[i].line, "\n");
      }
    }
    for (std::size_t f = 0; f < job_stems.size(); ++f) {
      const std::string path =
          cat(options_.drop_dir, "/", job_stems[f], ".result");
      if (!write_file_atomic(path, file_out[f])) {
        log_warn(cat("serve: cannot publish ", path));
      }
    }
    std::erase_if(clients, [](const Client& c) { return c.fd < 0; });
  }

  for (const Client& c : clients) {
    if (c.fd >= 0) ::close(c.fd);
  }
  for (const int fd : listeners) ::close(fd);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
  cache_.flush();
  return aborted ? 130 : 0;
}

}  // namespace tp::serve
