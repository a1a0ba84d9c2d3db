#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "bench.hpp"
#include "blm/data.hpp"
#include "hls/lanes.hpp"
#include "hls/profiler.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"

namespace edgebench {

void pin_this_thread(std::initializer_list<int> cpus) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(static_cast<std::size_t>(c), &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

double pct(util::Percentiles& p, double q) {
  return p.count() ? p.percentile(q) : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void report_setup(Result& r, const std::vector<SetupTimes>& runs) {
  std::vector<double> total, load, compile, spawn;
  for (const auto& s : runs) {
    total.push_back(s.total());
    load.push_back(s.model_load_s);
    compile.push_back(s.compile_s);
    spawn.push_back(s.spawn_s);
  }
  r.facts["setup_repeats"] = static_cast<double>(runs.size());
  r.metric("setup_s", median(total));
  r.metric("setup.model_load_s", median(load));
  r.metric("setup.compile_s", median(compile));
  r.metric("setup.spawn_s", median(spawn));
}

Deployment Deployment::load(const std::string& model_cache, bool with_w18,
                            SetupTimes& times) {
  const auto t0 = Clock::now();
  core::PretrainedOptions opts;
  opts.cache_dir = model_cache;
  Deployment d{core::pretrained_unet(opts), {}, std::nullopt};
  if (!d.bundle.loaded_from_cache) {
    throw std::runtime_error(
        "model cache miss: the U-Net weights were not loaded from " +
        model_cache +
        " (core::pretrained retrained them instead). Commit a valid "
        "models/ cache before benchmarking; retraining time must not be "
        "measured as set-up.");
  }
  const auto t1 = Clock::now();
  // The deployed configuration: 64 calibration frames (seed + 1), the
  // layer-based precision profile and the deployed reuse plan.
  const auto calibration =
      blm::build_eval_inputs(64, opts.seed + 1, d.bundle.standardizer,
                             d.bundle.machine);
  const auto profile = hls::profile_model(d.bundle.model, calibration);
  hls::HlsConfig cfg;
  cfg.reuse = hls::ReusePolicy::deployed_unet();
  cfg.quant = hls::layer_based_config(d.bundle.model, profile, 16);
  d.fw16 = hls::compile(d.bundle.model, cfg);
  if (with_w18) {
    cfg.quant = hls::layer_based_config(d.bundle.model, profile, 18);
    d.fw18 = hls::compile(d.bundle.model, cfg);
  }
  const auto t2 = Clock::now();
  times.model_load_s = seconds_between(t0, t1);
  times.compile_s = seconds_between(t1, t2);
  return d;
}

std::size_t macs_per_frame(const hls::FirmwareModel& fw) {
  std::size_t n = 0;
  for (const auto& l : fw.layers) n += l.total_macs();
  return n;
}

void report_firmware(Result& r, const hls::FirmwareModel& fw16) {
  r.metric("hls.macs_per_frame", static_cast<double>(macs_per_frame(fw16)));
  r.metric("hls.narrow_layers.w16",
           static_cast<double>(hls::prove_lanes(fw16).narrow_layers));
}

tensor::Tensor decode_frame(std::span<const std::uint32_t> counts,
                            const train::Standardizer& standardizer) {
  tensor::Tensor raw({counts.size(), 1});
  for (std::size_t i = 0; i < counts.size(); ++i) {
    raw[i] = static_cast<float>(net::decode_reading(counts[i]));
  }
  return standardizer.transform(raw);
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::size_t TickBook::frame_of(std::uint64_t stream, std::uint64_t seq) const {
  return static_cast<std::size_t>(
      util::derive_seed(salt ^ (stream * 0x9E3779B97F4A7C15ULL), seq) %
      counts.size());
}

void TickBook::fill(std::uint64_t stream, std::uint32_t seq,
                    std::vector<net::Delivery>& out) const {
  const auto& c = counts[frame_of(stream, seq)];
  out.resize(layout.size());
  for (std::size_t h = 0; h < layout.size(); ++h) {
    auto& d = out[h];
    d.dropped = false;
    d.arrival_us = 120.0;  // inside the assembler's 400 us hold-off
    auto& p = d.packet;
    p.hub_id = static_cast<std::uint8_t>(h);
    p.sequence = seq;
    p.first_monitor = layout[h].first;
    p.readings.assign(c.begin() + layout[h].first,
                      c.begin() + layout[h].first + layout[h].second);
    net::seal_packet(p);
  }
}

bool TickBook::matches(std::size_t frame, std::span<const float> output,
                       core::MitigationTarget target) const {
  return same_bits(output, oracle[frame].flat()) &&
         target == oracle_target[frame];
}

TickBook make_ticks(const Deployment& d, std::size_t frames,
                    std::uint64_t seed) {
  TickBook tb;
  tb.salt = util::derive_seed(seed, 2);
  tb.layout = net::hub_layout(260, 7);
  // Held-out machine frames (a seed stream the model never trained on),
  // back in raw units and digitized as the hubs would ship them.
  const auto inputs = blm::build_eval_inputs(
      frames, util::derive_seed(seed, 1), d.bundle.standardizer,
      d.bundle.machine);
  const hls::QuantizedModel oracle(d.fw16);
  for (const auto& in : inputs) {
    const auto raw = d.bundle.standardizer.inverse(in);
    std::vector<std::uint32_t> c(raw.numel());
    for (std::size_t m = 0; m < c.size(); ++m) {
      c[m] = net::encode_reading(static_cast<double>(raw[m]));
    }
    auto out = oracle.forward(decode_frame(c, d.bundle.standardizer));
    tb.oracle_target.push_back(core::decide(out, kTripThreshold).target);
    tb.oracle.push_back(std::move(out));
    tb.counts.push_back(std::move(c));
  }
  return tb;
}

std::vector<Event> sync_schedule(std::size_t streams,
                                 std::size_t ticks_per_stream) {
  std::vector<Event> ev;
  ev.reserve(streams * ticks_per_stream);
  for (std::size_t t = 0; t < ticks_per_stream; ++t) {
    for (std::size_t s = 0; s < streams; ++s) {
      ev.push_back({static_cast<double>(t) * kTickPeriodS,
                    static_cast<std::uint32_t>(s)});
    }
  }
  return ev;
}

void TickStats::answered(double ms) {
  ++attempted;
  latency_ms.add(ms);
  if (ms <= kDeadlineMs) ++met;
}

void TickStats::failed_tick(std::uint64_t& kind) {
  ++attempted;
  ++kind;
}

void TickStats::merge(const TickStats& other) {
  latency_ms.merge(other.latency_ms);
  lag_ms.merge(other.lag_ms);
  attempted += other.attempted;
  met += other.met;
  shed += other.shed;
  lost += other.lost;
  duplicated += other.duplicated;
  divergent += other.divergent;
  errored += other.errored;
  wall_s += other.wall_s;
  tail_lag_ms = std::max(tail_lag_ms, other.tail_lag_ms);
}

void report_ticks(Result& r, const std::vector<TickStats>& instances) {
  TickStats pooled;
  std::vector<double> p99s;
  std::size_t min_beyond = SIZE_MAX;
  for (const auto& in : instances) {
    pooled.merge(in);
    util::Percentiles latency = in.latency_ms;
    p99s.push_back(pct(latency, 99.0));
    // Samples strictly beyond the instance's nearest-rank p99.
    const auto n = latency.count();
    min_beyond = std::min(
        min_beyond,
        n - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))));
  }
  if (instances.empty()) min_beyond = 0;
  r.attempted += pooled.attempted;
  r.failed += pooled.failed();
  r.metric("deadline_met_frac", pooled.met_frac());
  util::Percentiles latency = pooled.latency_ms;
  r.metric("tick_p50_ms", pct(latency, 50.0));
  r.metric("tick_p99_ms", median(p99s));
  r.facts["tick_instances"] = static_cast<double>(instances.size());
  r.facts["tick_samples"] = static_cast<double>(latency.count());
  r.facts["tick_samples_per_instance"] = static_cast<double>(
      instances.empty() ? 0 : latency.count() / instances.size());
  r.facts["tick_samples_beyond_p99_min"] = static_cast<double>(min_beyond);
  r.facts["tick_p99_pooled_ms"] = pct(latency, 99.0);
  r.facts["tick_p999_pooled_ms"] = pct(latency, 99.9);
  r.facts["ticks_attempted"] = static_cast<double>(pooled.attempted);
  r.facts["ticks_shed"] = static_cast<double>(pooled.shed);
  r.facts["ticks_lost"] = static_cast<double>(pooled.lost);
  r.facts["ticks_duplicated"] = static_cast<double>(pooled.duplicated);
  r.facts["ticks_divergent"] = static_cast<double>(pooled.divergent);
  r.facts["ticks_errored"] = static_cast<double>(pooled.errored);
  r.facts["loadgen_tail_lag_ms"] = pooled.tail_lag_ms;
  util::Percentiles lag = pooled.lag_ms;
  r.facts["loadgen_lag_ms_p99"] = pct(lag, 99.0);
  if (min_beyond < 10) {
    r.problem("fewer than 10 samples lie beyond an instance's p99");
  }
  if (pooled.tail_lag_ms > kDeadlineMs) {
    r.problem("load generator fell behind its schedule");
  }
  check_exact(r, pooled, "measured phase");
}

void check_exact(Result& r, const TickStats& s, const std::string& phase) {
  if (s.divergent + s.duplicated + s.lost > 0) {
    r.problem(phase + ": " + std::to_string(s.divergent) + " divergent, " +
              std::to_string(s.duplicated) + " duplicated, " +
              std::to_string(s.lost) + " lost ticks");
  }
}

std::size_t ramp(std::size_t start,
                 const std::function<double(std::size_t)>& level, Result& r) {
  const auto passes = [&](std::size_t k) { return level(k) >= kRampPass; };
  std::size_t n = std::max<std::size_t>(1, start);
  if (passes(n)) {
    // One failing level alone (a host stall) does not end the ramp; two in
    // a row do.
    std::size_t best = n;
    for (int misses = 0; misses < 2 && n < kRampMaxStreams;) {
      if (passes(++n)) {
        best = n;
        misses = 0;
      } else {
        ++misses;
      }
    }
    if (best == kRampMaxStreams) {
      r.problem("the ramp reached its ceiling of " +
                std::to_string(kRampMaxStreams) + " streams still passing");
    }
    return best;
  }
  while (--n > 0) {
    if (passes(n)) return n;
  }
  return 0;
}

}  // namespace edgebench
