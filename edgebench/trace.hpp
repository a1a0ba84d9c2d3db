// Benchmark-side tracing: spans recorded around calls into the modules'
// public functions, kept in memory and written once at exit as Chrome
// trace-event JSON (opens in Perfetto or chrome://tracing). Spans the
// modules record internally can later join the same file.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "serve/backend.hpp"

namespace edgebench {

struct Span {
  const char* name = "";
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint32_t tick = 0;
  std::int32_t parent = -1;  ///< index of the causing span, -1 for a root
  std::uint32_t lane = 0;    ///< trace row (stream id)
};

class Trace {
 public:
  explicit Trace(std::size_t capacity) { spans_.reserve(capacity); }

  /// Record one span; returns its index (for children), or -1 once the
  /// reserved capacity is full (the trace then stops growing).
  std::int32_t add(const char* name, Clock::time_point t0,
                   Clock::time_point t1, std::uint32_t tick,
                   std::int32_t parent, std::uint32_t lane);

  std::size_t size() const { return spans_.size(); }

  /// Write every span as a Chrome "X" event, timestamps relative to
  /// `origin`. Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
};

/// Start/end of the backend call that served a frame.
struct BatchSpan {
  Clock::time_point t0{};
  Clock::time_point t1{};
  std::size_t frames = 0;
};

/// What TimedBackend saw. Thread-safe: replicas record concurrently.
class BatchLedger {
 public:
  /// With `key_frames`, each batch is also filed under its frames' data
  /// pointers so the client can find the call that served its tick.
  explicit BatchLedger(bool key_frames) : key_frames_(key_frames) {}

  void record(std::span<const tensor::Tensor> frames, Clock::time_point t0,
              Clock::time_point t1);
  /// Remove and return the batch that served the frame whose storage began
  /// at `data` (nullopt when unknown).
  std::optional<BatchSpan> take(const float* data);

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t frames = 0;
    double busy_ms = 0.0;
    double call_ms_p99 = 0.0;
  };
  Totals totals();
  /// While off, calls are not recorded (unmeasured lead-ins).
  void set_recording(bool on) { recording_.store(on); }

 private:
  bool key_frames_;
  std::atomic<bool> recording_{true};
  std::mutex mutex_;
  std::unordered_map<const float*, BatchSpan> by_frame_;
  util::Percentiles call_ms_;
  std::uint64_t frames_ = 0;
  double busy_ms_ = 0.0;
};

/// A serve::Backend that times QuantizedBackend::infer_batch_into. It wraps
/// by composition because QuantizedBackend is final; outputs are the inner
/// backend's, untouched.
class TimedBackend final : public serve::Backend {
 public:
  TimedBackend(hls::FirmwareModel firmware, BatchLedger& ledger)
      : inner_(std::move(firmware)), ledger_(ledger) {}

  std::string_view name() const noexcept override { return "timed-quantized"; }
  tensor::Tensor infer(const tensor::Tensor& frame) override {
    return inner_.infer(frame);
  }
  void infer_into(const tensor::Tensor& frame, tensor::Tensor& out) override {
    inner_.infer_into(frame, out);
  }
  void infer_batch_into(std::span<const tensor::Tensor> frames,
                        std::span<tensor::Tensor> outputs) override;

 private:
  serve::QuantizedBackend inner_;
  BatchLedger& ledger_;
};

}  // namespace edgebench
