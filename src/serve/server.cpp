#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hpp"
#include "core/experiment.hpp"
#include "core/spec.hpp"
#include "engine/sweep_runner.hpp"
#include "serve/protocol.hpp"

namespace pef::serve {

namespace {

/// One frame under the connection's write mutex (a worker-free design —
/// only the connection's own thread writes — but the mutex keeps the
/// invariant explicit and cheap).
bool send_frame(int fd, std::mutex& write_mutex, const std::string& payload) {
  std::lock_guard<std::mutex> lock(write_mutex);
  std::string error;
  return write_frame(fd, payload, &error);
}

bool close_fd(int& fd) {
  if (fd < 0) return false;
  ::close(fd);
  fd = -1;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Job

struct Server::Job {
  enum class State : std::uint8_t {
    kQueued = 0,
    kRunning,
    kDone,
    kFailed,
    kCancelled,
  };

  std::uint64_t id = 0;
  /// Canonical spec JSON — the cache key and coalescing identity.
  std::string key;
  bool is_sweep = false;
  ScenarioSpec scenario;
  SweepSpec sweep;

  /// Set by handle_cancel on a RUNNING sweep job; SweepRunner polls it
  /// between seed groups, so the job stops at the next group boundary.
  std::atomic<bool> cancel_requested{false};

  std::mutex mutex;
  std::condition_variable cv;
  State state = State::kQueued;
  std::uint64_t done_cells = 0;
  std::uint64_t total_cells = 0;
  double last_cell_wall = 0;
  /// Bumped on every progress update so waiters never miss one.
  std::uint64_t progress_version = 0;
  std::string result;
  std::string error;
};

namespace {

const char* state_name(std::uint8_t state) {
  switch (state) {
    case 0: return "queued";
    case 1: return "running";
    case 2: return "done";
    case 3: return "failed";
    case 4: return "cancelled";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_bytes, options_.cache_dir) {}

Server::~Server() {
  request_shutdown();
  // serve() joins everything; a Server destroyed without serve() still has
  // workers to collect.
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  close_all_connections();
  close_fd(unix_fd_);
  close_fd(tcp_fd_);
  close_fd(shutdown_pipe_[0]);
  close_fd(shutdown_pipe_[1]);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

bool Server::start(std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (options_.socket_path.empty()) {
    return fail("a Unix socket path is required (--socket)");
  }

  if (::pipe(shutdown_pipe_) != 0) {
    return fail(std::string("pipe: ") + std::strerror(errno));
  }

  // Unix socket.  A stale socket file from a crashed daemon is the normal
  // case; a LIVE daemon on the same path is detected by the bind itself
  // only after the unlink, so probe with a connect first.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof addr.sun_path) {
    return fail("socket path too long: " + options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    if (::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
        0) {
      ::close(probe);
      return fail("another daemon is already serving " +
                  options_.socket_path);
    }
    ::close(probe);
  }
  ::unlink(options_.socket_path.c_str());

  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd_ < 0) {
    return fail(std::string("socket: ") + std::strerror(errno));
  }
  if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(unix_fd_, 64) != 0) {
    return fail("cannot listen on " + options_.socket_path + ": " +
                std::strerror(errno));
  }

  // Optional TCP endpoint.
  if (!options_.listen.empty()) {
    const auto colon = options_.listen.rfind(':');
    if (colon == std::string::npos) {
      return fail("--listen must be host:port (got \"" + options_.listen +
                  "\")");
    }
    const std::string host = options_.listen.substr(0, colon);
    const int port = std::atoi(options_.listen.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      return fail("--listen port out of range in \"" + options_.listen +
                  "\"");
    }
    sockaddr_in inet_addr{};
    inet_addr.sin_family = AF_INET;
    inet_addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &inet_addr.sin_addr) != 1) {
      return fail("--listen host must be an IPv4 address (got \"" + host +
                  "\")");
    }
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) {
      return fail(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&inet_addr),
               sizeof inet_addr) != 0 ||
        ::listen(tcp_fd_, 64) != 0) {
      return fail("cannot listen on " + options_.listen + ": " +
                  std::strerror(errno));
    }
  }

  // Warm restart: reload whatever the previous daemon persisted.
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    reloaded_ = cache_.load_from_disk(nullptr);
  }

  const std::uint32_t workers = options_.workers == 0 ? 1 : options_.workers;
  workers_.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void Server::request_shutdown() {
  bool expected = false;
  if (!shutdown_requested_.compare_exchange_strong(expected, true)) return;
  // Async-signal-safe: only a write().
  if (shutdown_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(shutdown_pipe_[1], &byte, 1);
  }
}

bool Server::serve() {
  accept_loop();

  // Drain: refuse new submissions, cancel still-queued jobs, let running
  // jobs finish, then collect every thread.
  std::vector<std::shared_ptr<Job>> cancelled;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    draining_ = true;
    while (!queue_.empty()) {
      cancelled.push_back(queue_.front());
      queue_.pop_front();
    }
    for (const auto& job : cancelled) {
      in_flight_.erase(job->key);
      retire_job_locked(job->id);
    }
  }
  for (const auto& job : cancelled) {
    {
      std::lock_guard<std::mutex> lock(job->mutex);
      job->state = Job::State::kCancelled;
      job->error = "server shutting down";
    }
    job->cv.notify_all();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.jobs_cancelled;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  // In-flight results are delivered before the sockets drop: workers have
  // finished (join above), so every surviving connection either already
  // holds its result frames or is blocked reading the next request.
  close_all_connections();

  close_fd(unix_fd_);
  close_fd(tcp_fd_);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
  return true;
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[3];
    nfds_t count = 0;
    fds[count++] = {shutdown_pipe_[0], POLLIN, 0};
    const nfds_t unix_slot = count;
    if (unix_fd_ >= 0) fds[count++] = {unix_fd_, POLLIN, 0};
    const nfds_t tcp_slot = count;
    if (tcp_fd_ >= 0) fds[count++] = {tcp_fd_, POLLIN, 0};

    if (::poll(fds, count, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // Join whichever connection threads exited since the last wake —
    // cheap (they already deregistered) and keeps the thread count
    // proportional to LIVE clients, not clients ever served.
    reap_finished_connections();
    if ((fds[0].revents & POLLIN) != 0) return;  // shutdown byte

    for (nfds_t slot = 1; slot < count; ++slot) {
      if ((fds[slot].revents & POLLIN) == 0) continue;
      const int listen_fd = slot == unix_slot ? unix_fd_ : tcp_fd_;
      (void)tcp_slot;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      // Registering under the lock closes the race against a connection
      // so short-lived it deregisters before the emplace lands.
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.emplace(fd,
                           std::thread([this, fd] { connection_loop(fd); }));
    }
  }
}

void Server::reap_finished_connections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    finished.swap(finished_connections_);
  }
  for (std::thread& connection : finished) connection.join();
}

void Server::close_all_connections() {
  {
    std::unique_lock<std::mutex> lock(connections_mutex_);
    for (auto& [fd, thread] : connections_) ::shutdown(fd, SHUT_RDWR);
    // wait() releases the mutex, so each connection can deregister itself;
    // every job is terminal by now, so no stream outlives its socket.
    connections_cv_.wait(lock, [this] { return connections_.empty(); });
  }
  reap_finished_connections();
}

// ---------------------------------------------------------------------------
// Connections

void Server::connection_loop(int fd) {
  std::mutex write_mutex;
  for (;;) {
    std::string payload;
    std::string error;
    const FrameStatus status = read_frame(fd, &payload, &error);
    if (status == FrameStatus::kEof || status == FrameStatus::kError) {
      break;
    }
    if (status == FrameStatus::kOversized) {
      (void)send_frame(fd, write_mutex, error_frame(error));
      break;  // the stream position is unknown — close
    }

    std::string parse_error;
    const auto request = parse_json(payload, &parse_error);
    if (!request || !request->is_object()) {
      (void)send_frame(
          fd, write_mutex,
          error_frame("malformed request frame: " +
                      (parse_error.empty() ? "not a JSON object"
                                           : parse_error)));
      break;  // framing may be desynchronized — close
    }
    const JsonValue* op = request->find("op");
    if (op == nullptr || !op->is_string()) {
      (void)send_frame(fd, write_mutex,
                       error_frame("request needs a string \"op\""));
      continue;
    }

    const auto job_id_arg = [&request](std::uint64_t* out) {
      const JsonValue* job = request->find("job");
      if (job == nullptr || !job->is_number() || !job->is_uint) return false;
      *out = job->uint_value;
      return true;
    };

    if (op->string_value == "submit") {
      const JsonValue* spec_text = request->find("spec_text");
      if (spec_text == nullptr || !spec_text->is_string()) {
        (void)send_frame(
            fd, write_mutex,
            error_frame("submit needs a string \"spec_text\" holding the "
                        "spec document"));
        continue;
      }
      handle_submit(fd, write_mutex, spec_text->string_value);
    } else if (op->string_value == "status") {
      std::uint64_t job_id = 0;
      if (!job_id_arg(&job_id)) {
        (void)send_frame(fd, write_mutex,
                         error_frame("status needs an integer \"job\""));
        continue;
      }
      handle_status(fd, write_mutex, job_id);
    } else if (op->string_value == "result") {
      std::uint64_t job_id = 0;
      if (!job_id_arg(&job_id)) {
        (void)send_frame(fd, write_mutex,
                         error_frame("result needs an integer \"job\""));
        continue;
      }
      handle_result(fd, write_mutex, job_id);
    } else if (op->string_value == "cancel") {
      std::uint64_t job_id = 0;
      if (!job_id_arg(&job_id)) {
        (void)send_frame(fd, write_mutex,
                         error_frame("cancel needs an integer \"job\""));
        continue;
      }
      handle_cancel(fd, write_mutex, job_id);
    } else if (op->string_value == "stats") {
      handle_stats(fd, write_mutex);
    } else if (op->string_value == "shutdown") {
      JsonWriter json;
      json.begin_object();
      json.field("ok", true);
      json.field("shutting_down", true);
      json.end_object();
      (void)send_frame(fd, write_mutex, json.str());
      request_shutdown();
    } else {
      (void)send_frame(
          fd, write_mutex,
          error_frame("unknown op \"" + op->string_value +
                      "\" (ops: submit, status, result, cancel, stats, "
                      "shutdown)"));
    }
  }
  ::shutdown(fd, SHUT_RDWR);
  // Self-reclaim: deregister (so the shutdown broadcast can no longer see
  // this fd), close it while still holding the lock (so a kernel-reused fd
  // number can't be mistaken for this registration), and park the thread
  // handle for the accept loop / drain to join.  pef_client opens one
  // connection per command, so a daemon that parked fds until shutdown
  // would hit EMFILE after ~1024 client interactions.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    const auto it = connections_.find(fd);
    if (it != connections_.end()) {
      finished_connections_.push_back(std::move(it->second));
      connections_.erase(it);
    }
    ::close(fd);
  }
  connections_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// submit

void Server::handle_submit(int fd, std::mutex& write_mutex,
                           const std::string& spec_text) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submits;
  }

  // Parse with the strict spec parser.  The error frame keeps the JSON
  // parser's "line L, column C" message verbatim — a client fixing a typo
  // in a 40-line sweep file needs the position, not a summary.
  std::string error;
  const auto document = parse_json(spec_text, &error);
  if (!document) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.rejected;
    (void)send_frame(fd, write_mutex, error_frame("invalid spec: " + error));
    return;
  }

  // Kind auto-detection: a sweep grid has "algorithms" (plural axis), a
  // scenario has at most "algorithm".
  const bool is_sweep =
      document->is_object() && document->find("algorithms") != nullptr;
  ScenarioSpec scenario;
  SweepSpec sweep;
  std::string key;
  std::uint64_t total_cells = 0;
  if (is_sweep) {
    const auto parsed = sweep_spec_from_json(*document, &error);
    if (!parsed) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected;
      (void)send_frame(fd, write_mutex,
                       error_frame("invalid sweep spec: " + error));
      return;
    }
    sweep = *parsed;
    if (const auto invalid = sweep.validate()) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected;
      (void)send_frame(fd, write_mutex,
                       error_frame("invalid sweep spec: " + *invalid));
      return;
    }
    key = sweep.to_json();
    total_cells = count_sweep_cells(sweep);
  } else {
    const auto parsed = scenario_spec_from_json(*document, &error);
    if (!parsed) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected;
      (void)send_frame(fd, write_mutex,
                       error_frame("invalid scenario spec: " + error));
      return;
    }
    scenario = *parsed;
    if (const auto invalid = scenario.validate()) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected;
      (void)send_frame(fd, write_mutex,
                       error_frame("invalid scenario spec: " + *invalid));
      return;
    }
    key = scenario.to_json();
    total_cells = 1;
  }

  // Cache hit: zero compute, the result streams immediately.
  std::optional<std::string> cached;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cached = cache_.lookup(key);
  }
  if (cached) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.cache_hits;
    }
    JsonWriter ack;
    ack.begin_object();
    ack.field("ok", true);
    ack.field("job", std::uint64_t{0});  // no job: served from cache
    ack.field("cached", true);
    ack.field("total_cells", total_cells);
    ack.end_object();
    if (!send_frame(fd, write_mutex, ack.str())) return;
    (void)send_result(fd, write_mutex, 0, true, *cached);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.cache_misses;
  }

  // Miss: coalesce onto an identical in-flight job, or queue a new one.
  std::shared_ptr<Job> job;
  bool coalesced = false;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (draining_) {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.rejected;
      (void)send_frame(
          fd, write_mutex,
          error_frame("server is draining and refuses new submissions"));
      return;
    }
    const auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      job = it->second;
      coalesced = true;
    } else {
      if (queue_.size() >= options_.max_queue) {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.rejected;
        (void)send_frame(
            fd, write_mutex,
            error_frame("job queue is full (" +
                        std::to_string(options_.max_queue) +
                        " queued); retry later"));
        return;
      }
      job = std::make_shared<Job>();
      job->id = next_job_id_++;
      job->key = key;
      job->is_sweep = is_sweep;
      job->scenario = scenario;
      job->sweep = sweep;
      job->total_cells = total_cells;
      jobs_[job->id] = job;
      in_flight_[key] = job;
      queue_.push_back(job);
    }
  }
  if (coalesced) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.coalesced;
  } else {
    queue_cv_.notify_one();
  }

  JsonWriter ack;
  ack.begin_object();
  ack.field("ok", true);
  ack.field("job", job->id);
  ack.field("cached", false);
  ack.field("coalesced", coalesced);
  ack.field("total_cells", total_cells);
  ack.end_object();
  if (!send_frame(fd, write_mutex, ack.str())) return;

  (void)stream_job(fd, write_mutex, job);
}

// ---------------------------------------------------------------------------
// Workers

void Server::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and nothing left
      job = queue_.front();
      queue_.pop_front();
    }
    run_job(job);
  }
}

void Server::run_job(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    if (job->state != Job::State::kQueued) return;  // cancelled while queued
    job->state = Job::State::kRunning;
    ++job->progress_version;
  }
  job->cv.notify_all();

  std::string result;
  std::uint64_t cells = 0;
  bool failed = false;
  bool cancelled = false;
  std::string failure;
  try {
    if (job->is_sweep) {
      const SweepRunner runner(options_.sweep_threads);
      const SweepResult sweep_result = runner.run(
          job->sweep, {},
          [&job](std::uint64_t done, std::uint64_t total, double wall) {
            {
              // Callbacks from different workers may arrive out of order;
              // the count reported to clients never goes back.
              std::lock_guard<std::mutex> lock(job->mutex);
              job->done_cells = std::max(job->done_cells, done);
              job->total_cells = total;
              job->last_cell_wall = wall;
              ++job->progress_version;
            }
            job->cv.notify_all();
          },
          [&job] {
            return job->cancel_requested.load(std::memory_order_relaxed);
          });
      cancelled = sweep_result.cancelled;
      if (!cancelled) {
        result = sweep_result.to_json();
        cells = sweep_result.cells.size();
      }
    } else {
      result = run_result_to_json(run_scenario(job->scenario));
      cells = 1;
    }
  } catch (const std::exception& exception) {
    failed = true;
    failure = exception.what();
  }

  if (!failed && !cancelled) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.insert(job->key, result);
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    in_flight_.erase(job->key);
    retire_job_locked(job->id);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (failed) {
      ++stats_.jobs_failed;
    } else if (cancelled) {
      ++stats_.jobs_cancelled;
    } else {
      ++stats_.jobs_done;
      stats_.cells_computed += cells;
    }
  }
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->state = failed      ? Job::State::kFailed
                 : cancelled ? Job::State::kCancelled
                             : Job::State::kDone;
    job->error = cancelled ? "cancelled by client" : failure;
    job->result = std::move(result);
    job->done_cells = cells;
    ++job->progress_version;
  }
  job->cv.notify_all();
}

void Server::retire_job_locked(std::uint64_t job_id) {
  // Subscribers still streaming hold their own shared_ptr; dropping the
  // table entry only ends id-based status/result lookups.  The result
  // itself stays reachable through the cache keyed by spec.
  retired_jobs_.push_back(job_id);
  while (retired_jobs_.size() > options_.max_retained_jobs) {
    jobs_.erase(retired_jobs_.front());
    retired_jobs_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Streaming

bool Server::stream_job(int fd, std::mutex& write_mutex,
                        const std::shared_ptr<Job>& job) {
  std::uint64_t seen_version = 0;
  for (;;) {
    Job::State state;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    double wall = 0;
    std::string result;
    std::string failure;
    {
      std::unique_lock<std::mutex> lock(job->mutex);
      job->cv.wait(lock, [&job, seen_version] {
        return job->progress_version != seen_version;
      });
      seen_version = job->progress_version;
      state = job->state;
      done = job->done_cells;
      total = job->total_cells;
      wall = job->last_cell_wall;
      if (state == Job::State::kDone) result = job->result;
      if (state == Job::State::kFailed ||
          state == Job::State::kCancelled) {
        failure = job->error;
      }
    }

    switch (state) {
      case Job::State::kQueued:
      case Job::State::kRunning: {
        JsonWriter progress;
        progress.begin_object();
        progress.field("event", "progress");
        progress.field("job", job->id);
        progress.field("done", done);
        progress.field("total", total);
        progress.field("cell_wall_seconds", wall);
        progress.end_object();
        // A dead client stops the stream but never the job: the worker
        // owns the run, and the result still lands in the cache.
        if (!send_frame(fd, write_mutex, progress.str())) return false;
        break;
      }
      case Job::State::kDone: {
        // Progress frames are lossy while running (a fast job can finish
        // before its streamer wakes), but the terminal done==total frame
        // is guaranteed, so every subscriber sees at least one.
        JsonWriter final_progress;
        final_progress.begin_object();
        final_progress.field("event", "progress");
        final_progress.field("job", job->id);
        final_progress.field("done", done);
        final_progress.field("total", total);
        final_progress.field("cell_wall_seconds", wall);
        final_progress.end_object();
        if (!send_frame(fd, write_mutex, final_progress.str())) return false;
        return send_result(fd, write_mutex, job->id, false, result);
      }
      case Job::State::kFailed:
        return send_frame(fd, write_mutex,
                          error_frame("job failed: " + failure));
      case Job::State::kCancelled:
        return send_frame(fd, write_mutex,
                          error_frame("job cancelled: " + failure));
    }
  }
}

bool Server::send_result(int fd, std::mutex& write_mutex,
                         std::uint64_t job_id, bool cached,
                         const std::string& result) {
  // Never advertise bytes that cannot ship: write_frame refuses payloads
  // over kMaxFrameBytes, and a client that read the header would block
  // forever waiting for the promised result frame.
  if (result.size() > kMaxFrameBytes) {
    return send_frame(
        fd, write_mutex,
        error_frame("result of " + std::to_string(result.size()) +
                    " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                    "-byte frame limit"));
  }
  JsonWriter header;
  header.begin_object();
  header.field("event", "result");
  header.field("job", job_id);
  header.field("cached", cached);
  header.field("bytes", static_cast<std::uint64_t>(result.size()));
  header.end_object();
  // Two frames: the JSON header, then the raw result bytes.  The raw frame
  // is what keeps the client's output byte-identical to pef_sweep's.
  std::lock_guard<std::mutex> lock(write_mutex);
  std::string error;
  return write_frame(fd, header.str(), &error) &&
         write_frame(fd, result, &error);
}

// ---------------------------------------------------------------------------
// status / result / cancel / stats

void Server::handle_status(int fd, std::mutex& write_mutex,
                           std::uint64_t job_id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(job_id);
    if (it != jobs_.end()) job = it->second;
  }
  if (!job) {
    (void)send_frame(fd, write_mutex,
                     error_frame("unknown job " + std::to_string(job_id)));
    return;
  }
  JsonWriter json;
  json.begin_object();
  json.field("ok", true);
  json.field("job", job->id);
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    json.field("state", state_name(static_cast<std::uint8_t>(job->state)));
    json.field("done", job->done_cells);
    json.field("total", job->total_cells);
    if (!job->error.empty()) json.field("error", job->error);
  }
  json.end_object();
  (void)send_frame(fd, write_mutex, json.str());
}

void Server::handle_result(int fd, std::mutex& write_mutex,
                           std::uint64_t job_id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(job_id);
    if (it != jobs_.end()) job = it->second;
  }
  if (!job) {
    (void)send_frame(fd, write_mutex,
                     error_frame("unknown job " + std::to_string(job_id)));
    return;
  }
  std::string result;
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    if (job->state != Job::State::kDone) {
      (void)send_frame(
          fd, write_mutex,
          error_frame("job " + std::to_string(job_id) + " is " +
                      state_name(static_cast<std::uint8_t>(job->state)) +
                      ", not done"));
      return;
    }
    result = job->result;
  }
  (void)send_result(fd, write_mutex, job_id, false, result);
}

void Server::handle_cancel(int fd, std::mutex& write_mutex,
                           std::uint64_t job_id) {
  std::shared_ptr<Job> job;
  bool cancelled = false;
  bool cancelling = false;
  std::string state_label;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(job_id);
    if (it != jobs_.end()) job = it->second;
    if (job) {
      std::lock_guard<std::mutex> job_lock(job->mutex);
      if (job->state == Job::State::kQueued) {
        // A queued job dies immediately: drop it from the queue and mark
        // it terminal right here.
        for (auto it2 = queue_.begin(); it2 != queue_.end(); ++it2) {
          if ((*it2)->id == job_id) {
            queue_.erase(it2);
            break;
          }
        }
        in_flight_.erase(job->key);
        job->state = Job::State::kCancelled;
        job->error = "cancelled by client";
        ++job->progress_version;
        retire_job_locked(job_id);
        cancelled = true;
      } else if (job->state == Job::State::kRunning && job->is_sweep) {
        // A running sweep stops cooperatively: the worker polls this flag
        // between seed groups and retires the job as kCancelled itself
        // (which also bumps jobs_cancelled — not here, or it would double
        // count).  Scenario jobs are one indivisible engine run and just
        // complete.
        job->cancel_requested.store(true, std::memory_order_relaxed);
        cancelling = true;
      } else {
        state_label = state_name(static_cast<std::uint8_t>(job->state));
      }
    }
  }
  // Every frame goes out AFTER both mutexes are released: a stalled
  // client's full socket buffer blocking a send while jobs_mutex_ is held
  // would freeze the workers, all submissions, and stats with it.
  if (!job) {
    (void)send_frame(fd, write_mutex,
                     error_frame("unknown job " + std::to_string(job_id)));
    return;
  }
  if (!cancelled && !cancelling) {
    (void)send_frame(
        fd, write_mutex,
        error_frame("job " + std::to_string(job_id) + " is " + state_label +
                    " — only queued jobs and running sweeps can be "
                    "cancelled"));
    return;
  }
  if (cancelled) {
    job->cv.notify_all();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.jobs_cancelled;
  }
  JsonWriter json;
  json.begin_object();
  json.field("ok", true);
  json.field("job", job_id);
  json.field("cancelled", true);
  json.end_object();
  (void)send_frame(fd, write_mutex, json.str());
}

void Server::handle_stats(int fd, std::mutex& write_mutex) {
  const ServeStats stats = stats_snapshot();
  const CacheStats cache = cache_stats_snapshot();
  bool draining;
  std::uint64_t queued;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    draining = draining_;
    queued = queue_.size();
  }
  JsonWriter json;
  json.begin_object();
  json.field("ok", true);
  json.begin_object("stats");
  json.field("submits", stats.submits);
  json.field("cache_hits", stats.cache_hits);
  json.field("cache_misses", stats.cache_misses);
  json.field("coalesced", stats.coalesced);
  json.field("rejected", stats.rejected);
  json.field("jobs_done", stats.jobs_done);
  json.field("jobs_failed", stats.jobs_failed);
  json.field("jobs_cancelled", stats.jobs_cancelled);
  json.field("cells_computed", stats.cells_computed);
  json.field("queued", queued);
  json.end_object();
  json.begin_object("cache");
  json.field("entries", cache.entries);
  json.field("bytes", cache.bytes);
  json.field("hits", cache.hits);
  json.field("misses", cache.misses);
  json.field("insertions", cache.insertions);
  json.field("evictions", cache.evictions);
  json.field("reloaded", cache.reloaded);
  json.end_object();
  json.field("draining", draining);
  json.end_object();
  (void)send_frame(fd, write_mutex, json.str());
}

ServeStats Server::stats_snapshot() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

CacheStats Server::cache_stats_snapshot() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.stats();
}

std::size_t Server::active_connections() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  return connections_.size();
}

std::size_t Server::jobs_table_size() {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  return jobs_.size();
}

}  // namespace pef::serve
