// Shared vocabulary of the READS-Edge benchmark: run options, the result
// every workload fills, the deployed model and its bit-exactness oracle,
// the seeded tick material (hub packets per stream and tick), and the
// load schedules.
//
// The benchmark only calls the modules' public functions; every timing is
// taken around those calls from the benchmark's own files.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/deblender.hpp"
#include "core/pretrained.hpp"
#include "hls/firmware.hpp"
#include "hls/qmodel.hpp"
#include "net/hub.hpp"
#include "tensor/tensor.hpp"
#include "util/stats.hpp"

namespace edgebench {

using namespace reads;
using Clock = std::chrono::steady_clock;

/// The paper's hard real-time budget: one decision per 3 ms BLM tick.
inline constexpr double kDeadlineMs = 3.0;
inline constexpr double kTickPeriodS = 3e-3;
/// Summed-probability trip threshold of the deployed controller.
inline constexpr double kTripThreshold = 2.0;
/// Open-loop pacing: sleep until this long before a tick is due, then spin,
/// so the generator's own wakeup latency is not charged to the node.
inline constexpr auto kSpinLead = std::chrono::microseconds(200);

/// Wait until `t` (sleep, then spin for the last kSpinLead).
inline void wait_until(Clock::time_point t) {
  std::this_thread::sleep_until(t - kSpinLead);
  while (Clock::now() < t) {
  }
}

/// Thread placement on a host with at least four CPUs, so that where the
/// scheduler happens to put threads is not a hidden variable of a run: the
/// load generator, the thread that receives decisions, and the serving
/// threads (gateway replicas, or the replica processes) on cores of their
/// own. On smaller hosts nothing is pinned.
inline constexpr std::initializer_list<int> kGeneratorCpus = {0};
inline constexpr std::initializer_list<int> kCollectorCpus = {1};
inline constexpr std::initializer_list<int> kServingCpus = {2, 3};
void pin_this_thread(std::initializer_list<int> cpus);

/// Set-up is repeated this many times per run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;
/// Every measurement leg starts with an unmeasured lead-in of this many
/// ticks per stream at the leg's load, so caches, the replicas' service
/// estimates (which shape their batches) and the router's round-trip
/// estimates are warm when measuring starts.
inline constexpr std::size_t kLeadInTicks = 60;
/// Serving instances: on a shared host a stall of the serving threads (tens
/// of ms when a virtual CPU is descheduled) backs up one serving instance's
/// queue and makes a burst of late ticks, and host speed drifts during a
/// run. Every measurement therefore runs on several fresh instances
/// (gateways, or router + replica processes) in turn, and the tail figures
/// are medians over them (see report_ticks and edge.cpp's
/// find_max_streams).
///
/// The ramp's pass mark (deadline_met_frac) for max_streams.
inline constexpr double kRampPass = 0.99;
/// The ramp's ceiling: reaching it with steps still passing marks the run
/// invalid rather than under-reporting the capacity.
inline constexpr std::size_t kRampMaxStreams = 64;
/// The value of an end-to-end metric on a workload it is not defined for
/// (frames_per_s off offline_sweep): a fixed marker, since every run
/// reports every end-to-end metric.
inline constexpr double kNotApplicable = 1.0;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string model_cache;  ///< private copy of models/ (see run.py)
  std::string out_dir;      ///< result and trace files
};

/// What a workload reports. Metric units live in main.cpp's catalogue,
/// which is the one list of names BENCHMARK.json mirrors.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Sample counts and other run facts for the meta block.
  std::map<std::string, double> facts;
  std::vector<std::string> problems;

  void metric(const std::string& name, double value) { metrics[name] = value; }
  void problem(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Nearest-rank percentile that tolerates an empty sample (0).
double pct(util::Percentiles& p, double q);

/// Median of a small vector (copied).
double median(std::vector<double> v);

/// Set-up wall times, seconds. setup_s is the sum of the three parts.
struct SetupTimes {
  double model_load_s = 0.0;  ///< core::pretrained_unet from the cache
  double compile_s = 0.0;     ///< profile + hls::compile (+ QuantizedModel)
  double spawn_s = 0.0;       ///< gateway start / cluster children + router
  double total() const { return model_load_s + compile_s + spawn_s; }
};

/// Report setup_s and the setup.* layer metrics as medians over repeats.
void report_setup(Result& r, const std::vector<SetupTimes>& runs);

/// The deployed U-Net: cached weights, layer-based 16-bit firmware with the
/// deployed reuse plan, and optionally the same model lowered at 18 bits
/// (where the range prover puts every MAC layer on the wide int64 lane).
struct Deployment {
  core::TrainedBundle bundle;
  hls::FirmwareModel fw16;
  std::optional<hls::FirmwareModel> fw18;

  /// Loads from `model_cache`. Throws when the weights were not loaded from
  /// the cache: core::pretrained would otherwise retrain for minutes, and
  /// that time would land in setup_s.
  static Deployment load(const std::string& model_cache, bool with_w18,
                         SetupTimes& times);
};

/// Multiply-accumulates one frame costs through `fw`.
std::size_t macs_per_frame(const hls::FirmwareModel& fw);

/// The deployed firmware's static facts: hls.macs_per_frame and
/// hls.narrow_layers.w16 (MAC layers the range prover put on narrow lanes).
void report_firmware(Result& r, const hls::FirmwareModel& fw16);

/// Digitizer counts -> raw readings -> standardized model input: exactly
/// what net::FrameAssembler + the standardizer (or a replica's frame
/// decoder) produce, so the oracle sees the serving path's input.
tensor::Tensor decode_frame(std::span<const std::uint32_t> counts,
                            const train::Standardizer& standardizer);

/// Bit-for-bit float comparison (NaN-safe, -0.0 != +0.0).
bool same_bits(std::span<const float> a, std::span<const float> b);

/// Seeded tick material: a pool of held-out machine frames as digitizer
/// counts, each with the single-process QuantizedModel oracle's output and
/// decision. Stream s's tick q carries frame frame_of(s, q).
struct TickBook {
  std::vector<std::vector<std::uint32_t>> counts;
  std::vector<tensor::Tensor> oracle;
  std::vector<core::MitigationTarget> oracle_target;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> layout;
  std::uint64_t salt = 0;

  std::size_t frame_of(std::uint64_t stream, std::uint64_t seq) const;
  /// The seven sealed hub packets of one tick, in `out` (reused storage).
  void fill(std::uint64_t stream, std::uint32_t seq,
            std::vector<net::Delivery>& out) const;
  /// Does `output` (and the decision taken on it) match the oracle?
  bool matches(std::size_t frame, std::span<const float> output,
               core::MitigationTarget target) const;
};

TickBook make_ticks(const Deployment& d, std::size_t frames,
                    std::uint64_t seed);

/// One scheduled tick: due offset from the phase start, and its stream.
struct Event {
  double due_s = 0.0;
  std::uint32_t stream = 0;
};

/// `streams` streams all due together every 3 ms, for `ticks_per_stream`.
std::vector<Event> sync_schedule(std::size_t streams,
                                 std::size_t ticks_per_stream);

/// Per-tick outcome in a measured phase.
struct TickStats {
  util::Percentiles latency_ms;  ///< answered ticks only
  util::Percentiles lag_ms;      ///< due -> generator picked the tick up
  std::uint64_t attempted = 0;
  std::uint64_t met = 0;  ///< correct decision within the deadline
  std::uint64_t shed = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t divergent = 0;
  std::uint64_t errored = 0;
  double wall_s = 0.0;  ///< first due -> last decision
  /// Median generator lag over the phase's last tenth: a growing backlog
  /// means the generator could not keep the offered load.
  double tail_lag_ms = 0.0;

  /// Record the next attempted tick: answered correctly after `ms`.
  void answered(double ms);
  /// Record the next attempted tick as failed, counted under `kind`.
  void failed_tick(std::uint64_t& kind);
  /// Append another phase's ticks (pooling instances).
  void merge(const TickStats& other);

  std::uint64_t failed() const {
    return shed + lost + duplicated + divergent + errored;
  }
  double met_frac() const {
    return attempted ? static_cast<double>(met) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

/// Report the tick metrics shared by every workload from the measured
/// phase's serving instances, and fold their counts into
/// `r.attempted/failed`: deadline_met_frac and tick_p50_ms over every tick
/// of the phase (all instances pooled), and tick_p99_ms as the median over
/// the instances of each one's nearest-rank p99, so a host stall that
/// backs up one instance does not decide the run's tail (the pooled p99 is
/// kept in meta). Marks the run invalid if fewer than 10 samples lie
/// beyond any instance's p99, or the generator fell behind.
void report_ticks(Result& r, const std::vector<TickStats>& instances);

/// Mark the run invalid if an unmeasured or ramp phase had divergent,
/// duplicated or lost ticks (the measured phase goes through report_ticks).
void check_exact(Result& r, const TickStats& s, const std::string& phase);

/// Stepped ramp on one serving instance: `level(n)` runs one level at n
/// streams and returns its deadline_met_frac. Starts at `start` and steps up
/// by one until two levels in a row fail; if the first level fails, steps
/// down by one until one passes. Never cut short by time; reaching
/// kRampMaxStreams still passing marks the run invalid. Returns the most
/// streams that passed (0 if none did).
std::size_t ramp(std::size_t start,
                 const std::function<double(std::size_t)>& level, Result& r);

// ---- workloads -----------------------------------------------------------

Result run_edge(const Options& o);
Result run_cluster(const Options& o, const std::string& self_exe);
Result run_offline(const Options& o);

/// Child role of cluster_uds: one replica server process.
int replica_main(const std::string& listen, const std::string& model_cache);

}  // namespace edgebench
