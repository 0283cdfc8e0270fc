// TRACE_SCOPE: wall-clock profiling spans that compile out of the binary
// unless the build is configured with -DSIM_TRACE=ON (which defines
// SIM_TRACE_EVENTS, mirroring the SIM_AUDIT_CHECKS pattern from
// util/audit.h: the macro argument is still type-checked in every build,
// but a default build carries no trace code on the hot path).
//
//   TRACE_SCOPE("name");   RAII wall-clock span: records how long the
//                          enclosing scope took (profiling the simulator
//                          itself — run loops, analysis passes).
//
// What happened inside the simulated world (drops, timeouts, probe
// echoes) is recorded by the components themselves: ProbeTrace,
// LinkStats and drop/delivery hooks, TcpStats.
//
// Records go to a process-wide TraceRecorder; TraceRecorder::write() emits
// a compact binary file ("BTRC") that tools/trace2json.py converts to
// Chrome trace_event JSON loadable in chrome://tracing or Perfetto.
//
// Name arguments must be string literals (they are interned once per
// record; the binary stores uint32 ids plus one string table).
#pragma once

#include <cstdint>
#include <string>

namespace bolot::obs {

#if defined(SIM_TRACE_EVENTS)
inline constexpr bool kTraceEnabled = true;
#else
inline constexpr bool kTraceEnabled = false;
#endif

/// One binary trace record: a wall-clock span, ts_ns nanoseconds after
/// recording started.
struct TraceRecord {
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t name_id = 0;
  std::uint32_t tid = 0;  // dense per-thread id, first-use order
  std::uint8_t type = 0;  // 0 = wall scope, the only type written
  std::uint8_t pad[7] = {};
};
static_assert(sizeof(TraceRecord) == 32, "trace record layout is part of "
                                         "the BTRC file format");

/// Process-wide trace sink.  All methods are thread-safe (sweep workers
/// may trace concurrently); recording is a mutex-guarded append, which is
/// fine for an opt-in diagnostic build.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Starts (or restarts) collection: clears the buffers and sets the
  /// wall-clock origin.  Records are dropped unless active.
  void start();
  void stop() { active_ = false; }
  bool active() const { return active_; }
  std::size_t record_count() const;

  /// Stops collection and writes the BTRC binary; throws
  /// std::runtime_error on I/O failure.
  void write(const std::string& path);

  /// Interns a name, returning its dense id.
  std::uint32_t intern(const char* name);
  void record_scope(std::uint32_t name_id, std::int64_t start_ns,
                    std::int64_t dur_ns);

  /// Wall nanoseconds since start() (steady clock).
  std::int64_t now_ns() const;

 private:
  TraceRecorder() = default;
  struct Impl;
  Impl& impl() const;
  bool active_ = false;
};

/// RAII wall-clock span for TRACE_SCOPE.  Cheap no-op when the recorder
/// is not active.
class TraceScope {
 public:
  explicit TraceScope(const char* name);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::uint32_t name_id_ = 0;
  std::int64_t start_ns_ = 0;
  bool armed_ = false;
};

}  // namespace bolot::obs

#define BOLOT_TRACE_CAT2(a, b) a##b
#define BOLOT_TRACE_CAT(a, b) BOLOT_TRACE_CAT2(a, b)

#if defined(SIM_TRACE_EVENTS)
/// Wall-clock profiling span covering the rest of the enclosing scope.
#define TRACE_SCOPE(name) \
  ::bolot::obs::TraceScope BOLOT_TRACE_CAT(bolot_trace_scope_, __LINE__)(name)
#else
/// Compiled out; the argument is still type-checked as an expression.
#define TRACE_SCOPE(name) \
  do {                    \
    (void)sizeof(name);   \
  } while (0)
#endif
