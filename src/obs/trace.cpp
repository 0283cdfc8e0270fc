#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace bolot::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

}  // namespace

struct TraceRecorder::Impl {
  mutable std::mutex mu;
  std::int64_t epoch_ns = 0;
  std::vector<TraceRecord> records;
  std::vector<std::string> names;  // id -> name
  std::map<std::string, std::uint32_t, std::less<>> ids;
};

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

TraceRecorder::Impl& TraceRecorder::impl() const {
  static Impl impl;
  return impl;
}

void TraceRecorder::start() {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mu);
  im.records.clear();
  im.names.clear();
  im.ids.clear();
  im.epoch_ns = steady_ns();
  active_ = true;
}

std::size_t TraceRecorder::record_count() const {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mu);
  return im.records.size();
}

std::int64_t TraceRecorder::now_ns() const {
  return steady_ns() - impl().epoch_ns;
}

std::uint32_t TraceRecorder::intern(const char* name) {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.ids.find(name);
  if (it != im.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(im.names.size());
  im.names.emplace_back(name);
  im.ids.emplace(name, id);
  return id;
}

void TraceRecorder::record_scope(std::uint32_t name_id, std::int64_t start_ns,
                                 std::int64_t dur_ns) {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mu);
  im.records.push_back(
      {start_ns, dur_ns, name_id, current_tid(), /*type=*/0, {}});
}

void TraceRecorder::write(const std::string& path) {
  Impl& im = impl();
  active_ = false;
  const std::lock_guard<std::mutex> lock(im.mu);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("TraceRecorder: cannot open " + path);

  const char magic[4] = {'B', 'T', 'R', 'C'};
  const std::uint32_t version = 1;
  const auto string_count = static_cast<std::uint64_t>(im.names.size());
  const auto record_count = static_cast<std::uint64_t>(im.records.size());
  out.write(magic, sizeof(magic));
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&string_count),
            sizeof(string_count));
  out.write(reinterpret_cast<const char*>(&record_count),
            sizeof(record_count));
  for (const std::string& name : im.names) {
    const auto len = static_cast<std::uint32_t>(name.size());
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  if (!im.records.empty()) {
    out.write(reinterpret_cast<const char*>(im.records.data()),
              static_cast<std::streamsize>(im.records.size() *
                                           sizeof(TraceRecord)));
  }
  if (!out) throw std::runtime_error("TraceRecorder: write failed: " + path);
}

TraceScope::TraceScope(const char* name) {
  TraceRecorder& recorder = TraceRecorder::instance();
  if (!recorder.active()) return;
  armed_ = true;
  name_id_ = recorder.intern(name);
  start_ns_ = recorder.now_ns();
}

TraceScope::~TraceScope() {
  if (!armed_) return;
  TraceRecorder& recorder = TraceRecorder::instance();
  if (!recorder.active()) return;  // recording stopped mid-scope
  recorder.record_scope(name_id_, start_ns_, recorder.now_ns() - start_ns_);
}

}  // namespace bolot::obs
