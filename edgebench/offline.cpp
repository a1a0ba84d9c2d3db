// offline_sweep: one thread runs held-out frames through the 16-bit U-Net
// firmware (every MAC layer on a narrow lane) and the same model lowered
// at 18 bits (every MAC layer on the wide int64 lane), in equal counts, via
// QuantizedModel::forward_into. This is the requalification / autotune
// validation path: the only workload that runs the wide lane, and one that
// bypasses serve, net and cluster, so a gateway or router change must show
// no change here.

#include "bench.hpp"
#include "blm/data.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace edgebench {

namespace {

/// The expected output of every pool frame, from the seed executor
/// (forward_raw_reference), which the fast kernels must match bit for bit.
std::vector<tensor::Tensor> reference_outputs(
    const hls::QuantizedModel& qm, const std::vector<tensor::Tensor>& frames) {
  std::vector<tensor::Tensor> out;
  for (const auto& f : frames) {
    out.push_back(qm.dequantize_output(
        qm.forward_raw_reference(qm.quantize_input(f))));
  }
  return out;
}

struct Sweep {
  TickStats ticks;
  double w16_ms = 0.0;  ///< summed forward time per firmware
  double w18_ms = 0.0;
};

}  // namespace

Result run_offline(const Options& o) {
  Result r;
  std::vector<SetupTimes> setups;
  std::optional<Deployment> dep;
  std::unique_ptr<hls::QuantizedModel> q16, q18;
  for (int i = 0; i < kSetupRepeats; ++i) {
    q16.reset();
    q18.reset();
    SetupTimes t;
    dep.emplace(Deployment::load(o.model_cache, true, t));
    const auto s0 = Clock::now();
    q16 = std::make_unique<hls::QuantizedModel>(dep->fw16);
    q18 = std::make_unique<hls::QuantizedModel>(*dep->fw18);
    t.spawn_s = seconds_between(s0, Clock::now());
    setups.push_back(t);
  }
  report_setup(r, setups);
  report_firmware(r, dep->fw16);

  const auto frames = blm::build_eval_inputs(
      32, util::derive_seed(o.seed, 3), dep->bundle.standardizer,
      dep->bundle.machine);
  const auto want16 = reference_outputs(*q16, frames);
  const auto want18 = reference_outputs(*q18, frames);
  util::Xoshiro256 rng(util::derive_seed(o.seed, 4));

  // One tick = one held-out frame through both firmwares, back to back (a
  // closed loop: each tick is due when the previous one finished).
  tensor::Tensor out16, out18;
  const auto sweep = [&](double seconds, Trace* trace) {
    Sweep s;
    const auto t_start = Clock::now();
    auto t_last = t_start;
    std::uint32_t tick = 0;
    while (seconds_between(t_start, t_last) < seconds) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(frames.size()));
      const auto t0 = Clock::now();
      q16->forward_into(frames[i], out16);
      const auto t1 = Clock::now();
      q18->forward_into(frames[i], out18);
      const auto t2 = Clock::now();
      if (!same_bits(out16.flat(), want16[i].flat()) ||
          !same_bits(out18.flat(), want18[i].flat())) {
        s.ticks.failed_tick(s.ticks.divergent);
      } else {
        s.ticks.answered(ms_between(t0, t2));
      }
      s.ticks.lag_ms.add(0.0);
      s.w16_ms += ms_between(t0, t1);
      s.w18_ms += ms_between(t1, t2);
      if (trace != nullptr) {
        const auto root = trace->add("tick", t0, t2, tick, -1, 0);
        trace->add("hls.forward.w16", t0, t1, tick, root, 0);
        trace->add("hls.forward.w18", t1, t2, tick, root, 0);
      }
      ++tick;
      t_last = t2;
    }
    s.ticks.wall_s = seconds_between(t_start, t_last);
    return s;
  };

  if (!o.trace) {
    const Sweep s = sweep(o.seconds, nullptr);
    report_ticks(r, {s.ticks});
    // Two frames per tick, one through each firmware.
    r.metric("frames_per_s",
             static_cast<double>(2 * (s.ticks.attempted - s.ticks.failed())) /
                 s.ticks.wall_s);
    return r;
  }

  Sweep plain = sweep(0.5 * o.seconds, nullptr);
  Trace trace(static_cast<std::size_t>(o.seconds * 4000.0) * 3);
  const auto traced_origin = Clock::now();
  Sweep traced = sweep(0.5 * o.seconds, &trace);
  if (plain.ticks.divergent + traced.ticks.divergent > 0) {
    r.problem("fast kernels diverged from forward_raw_reference");
  }
  r.attempted = plain.ticks.attempted + traced.ticks.attempted;
  r.failed = plain.ticks.failed() + traced.ticks.failed();
  trace.write_chrome(o.out_dir + "/trace-" + o.workload + ".json",
                     traced_origin);
  const auto n = static_cast<double>(traced.ticks.attempted);
  const double macs = static_cast<double>(macs_per_frame(dep->fw16));
  const double macs18 = static_cast<double>(macs_per_frame(*dep->fw18));
  const double ms16 = n > 0 ? traced.w16_ms / n : 0.0;
  const double ms18 = n > 0 ? traced.w18_ms / n : 0.0;
  r.metric("loadgen.ticks", n);
  r.metric("hls.forward_ms_per_frame.w16", ms16);
  r.metric("hls.forward_ms_per_frame.w18", ms18);
  r.metric("hls.gmacs_per_s.w16", ms16 > 0.0 ? macs / (ms16 * 1e6) : 0.0);
  r.metric("hls.gmacs_per_s.w18", ms18 > 0.0 ? macs18 / (ms18 * 1e6) : 0.0);
  r.metric("hls.narrow_layers.w18",
           static_cast<double>(q18->lanes().narrow_layers));
  const double p50 = pct(plain.ticks.latency_ms, 50.0);
  r.metric("trace.overhead_frac",
           p50 > 0.0 ? pct(traced.ticks.latency_ms, 50.0) / p50 - 1.0 : 0.0);
  r.facts["trace_spans"] = static_cast<double>(trace.size());
  return r;
}

}  // namespace edgebench
