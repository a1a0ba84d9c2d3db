#include "trace.hpp"

#include <fstream>

namespace edgebench {

namespace {

std::int64_t ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

std::int32_t Trace::add(const char* name, Clock::time_point t0,
                        Clock::time_point t1, std::uint32_t tick,
                        std::int32_t parent, std::uint32_t lane) {
  if (spans_.size() == spans_.capacity()) return -1;
  spans_.push_back(Span{name, ns(t0), ns(t1), tick, parent, lane});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

bool Trace::write_chrome(const std::string& path,
                         Clock::time_point origin) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return false;
  const std::int64_t o = ns(origin);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"edgebench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.lane << ", \"ts\": "
        << util::json_double(static_cast<double>(s.t0_ns - o) / 1e3)
        << ", \"dur\": "
        << util::json_double(static_cast<double>(s.t1_ns - s.t0_ns) / 1e3)
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << ", \"tick\": " << s.tick << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void BatchLedger::record(std::span<const tensor::Tensor> frames,
                         Clock::time_point t0, Clock::time_point t1) {
  if (!recording_.load()) return;
  std::lock_guard lock(mutex_);
  call_ms_.add(ms_between(t0, t1));
  frames_ += frames.size();
  busy_ms_ += ms_between(t0, t1);
  if (!key_frames_) return;
  for (const auto& f : frames) {
    by_frame_[f.data()] = BatchSpan{t0, t1, frames.size()};
  }
}

std::optional<BatchSpan> BatchLedger::take(const float* data) {
  std::lock_guard lock(mutex_);
  const auto it = by_frame_.find(data);
  if (it == by_frame_.end()) return std::nullopt;
  const BatchSpan span = it->second;
  by_frame_.erase(it);
  return span;
}

BatchLedger::Totals BatchLedger::totals() {
  std::lock_guard lock(mutex_);
  Totals t;
  t.calls = call_ms_.count();
  t.frames = frames_;
  t.busy_ms = busy_ms_;
  t.call_ms_p99 = pct(call_ms_, 99.0);
  return t;
}

void TimedBackend::infer_batch_into(std::span<const tensor::Tensor> frames,
                                    std::span<tensor::Tensor> outputs) {
  const auto t0 = Clock::now();
  inner_.infer_batch_into(frames, outputs);
  ledger_.record(frames, t0, Clock::now());
}

}  // namespace edgebench
