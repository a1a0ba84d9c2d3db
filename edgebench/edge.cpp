// edge_sync: the in-process deblending node.
//
// Per tick: seven sealed hub packets -> net::FrameAssembler::assemble_into
// -> the standardizer -> serve::Gateway::submit_into (2 replicas,
// max_batch 4, the tick's remaining 3 ms budget) -> ResponseSlot ->
// core::decide. One generator thread (this one) and one collector thread
// drive it; with the two replica threads that is the host's four.
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "net/assembler.hpp"
#include "serve/gateway.hpp"
#include "trace.hpp"

namespace edgebench {

namespace {

constexpr std::size_t kFixedStreams = 8;
/// max_streams search (see find_max_streams): coarse per-gateway ramps,
/// then rounds over a window of levels of about kLevelFrames frames each.
constexpr std::size_t kCoarseRamps = 3;
constexpr std::size_t kWindow = 5;
constexpr std::size_t kSweepRounds = 20;
constexpr std::size_t kLevelFrames = 900;
/// Fresh gateways pooled in the fixed-load phase.
constexpr std::size_t kFixedInstances = 16;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kMaxBatch = 4;
/// The gateway runs without predicted-late shedding: under synchronized
/// bursts its admission control refuses 1-16% of the ticks at 8 streams,
/// and how many changes from run to run by more than any bound could
/// absorb, so a refused tick (a failed operation) cannot be the measure.
/// Every tick is queued instead, and lateness shows in tick_p99_ms and
/// deadline_met_frac. A replica's queue holds about 190 ms of its share of
/// the fixed load, so it overflows only when the node falls that far
/// behind.
constexpr std::size_t kQueueCapacity = 256;
/// Response slots in flight at most; far above what a 3 ms budget allows.
constexpr std::size_t kSlots = 512;
/// Hub deliveries prepared ahead of their due time (the hubs' work, not the
/// node's, so it stays off the tick's critical path).
constexpr std::size_t kLookahead = 64;
/// A phase that has not answered every admitted tick this long after its
/// last due time has lost ticks.
constexpr double kDrainTimeoutS = 5.0;
/// Per-tick stage sums must reconcile with the tick latency to within
/// kStageToleranceUs on at least kStageReconciledFrac of the ticks. The one
/// unpaired gap is the gateway's arrival stamp inside submit_into against
/// the benchmark's post-submit timestamp: when the woken replica preempts
/// the submitting thread, the submit span overlaps the tick's own queue
/// wait and that tick does not reconcile.
constexpr double kStageToleranceUs = 50.0;
constexpr double kStageReconciledFrac = 0.95;

struct TickRec {
  Clock::time_point due{}, picked{}, assembled{}, standardized{}, submitted{};
  Clock::time_point woke{}, decided{};
  std::uint32_t stream = 0;
  std::uint32_t seq = 0;
  std::uint32_t frame = 0;
  const float* key = nullptr;  ///< frame storage, for the batch ledger
  serve::ResponseSlot* slot = nullptr;
  bool shed = false;
  bool bad_frame = false;  ///< the assembler did not use all seven packets
  bool lost = false;       ///< set (before a forced publish) by the drain
  // Collector's findings.
  bool correct = false;
  bool duplicate = false;
  double queue_ms = 0.0;
  std::optional<BatchSpan> batch;
};

/// The node under test plus the per-stream state that persists across
/// phases (assemblers and sequence numbers).
class EdgeNode {
 public:
  EdgeNode(const Deployment& d, const TickBook& book, BatchLedger* ledger)
      : d_(d), book_(book), ledger_(ledger) {
    std::vector<std::unique_ptr<serve::Backend>> backends;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      if (ledger_ != nullptr) {
        backends.push_back(std::make_unique<TimedBackend>(d.fw16, *ledger_));
      } else {
        backends.push_back(std::make_unique<serve::QuantizedBackend>(d.fw16));
      }
    }
    serve::GatewayConfig cfg;
    cfg.max_batch = kMaxBatch;
    cfg.deadline_ms = kDeadlineMs;
    // Every tick is served and a late one is measured late (see
    // kQueueCapacity).
    cfg.admission_control = false;
    cfg.queue_capacity = kQueueCapacity;
    // Replica threads inherit the serving cores; the caller, which
    // generates the load, keeps its own.
    pin_this_thread(kServingCpus);
    gateway_ = std::make_unique<serve::Gateway>(std::move(backends), cfg);
    pin_this_thread(kGeneratorCpus);
    ring_.resize(kLookahead);
  }

  std::uint64_t packets_rejected() const {
    std::uint64_t n = 0;
    for (const auto& a : assemblers_) n += a->counters().total_rejects();
    return n;
  }

  /// Run one open-loop phase over `sched`; fills `recs` (one per event).
  /// Ticks still unanswered kDrainTimeoutS after the last due time are
  /// marked lost; the gateway then stops, and later phases shed every tick.
  void run(const std::vector<Event>& sched, std::vector<TickRec>& recs);

 private:
  void prepare(std::size_t j, const std::vector<Event>& sched,
               std::vector<TickRec>& recs) {
    book_.fill(sched[j].stream, recs[j].seq, ring_[j % kLookahead]);
  }
  void collect(std::vector<TickRec>& recs);

  const Deployment& d_;
  const TickBook& book_;
  BatchLedger* ledger_;
  std::unique_ptr<serve::Gateway> gateway_;
  std::vector<std::unique_ptr<net::FrameAssembler>> assemblers_;
  std::vector<std::uint32_t> next_seq_;
  std::vector<std::vector<net::Delivery>> ring_;
  std::array<serve::ResponseSlot, kSlots> slots_;
  std::atomic<std::size_t> produced_{0};
  std::atomic<std::size_t> consumed_{0};
};

void EdgeNode::collect(std::vector<TickRec>& recs) {
  pin_this_thread(kCollectorCpus);
  std::unordered_set<std::uint64_t> ids;
  ids.reserve(recs.size() * 2);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    std::size_t p = produced_.load(std::memory_order_acquire);
    while (p <= k) {
      produced_.wait(p, std::memory_order_acquire);
      p = produced_.load(std::memory_order_acquire);
    }
    TickRec& rec = recs[k];
    if (!rec.shed) {
      serve::Response& resp = rec.slot->wait();
      rec.woke = Clock::now();
      if (!rec.lost) {
        const core::Decision decision =
            core::decide(tensor::Tensor(resp.output), kTripThreshold);
        rec.decided = Clock::now();
        rec.correct = resp.stream == rec.stream &&
                      book_.matches(rec.frame, resp.output.flat(),
                                    decision.target);
        rec.duplicate = !ids.insert(resp.id).second;
        rec.queue_ms = resp.queue_ms;
        if (ledger_ != nullptr) rec.batch = ledger_->take(rec.key);
      }
    }
    consumed_.store(k + 1, std::memory_order_release);
  }
}

void EdgeNode::run(const std::vector<Event>& sched,
                   std::vector<TickRec>& recs) {
  const std::size_t n = sched.size();
  recs.assign(n, TickRec{});
  std::uint32_t max_stream = 0;
  for (const auto& e : sched) max_stream = std::max(max_stream, e.stream);
  while (assemblers_.size() <= max_stream) {
    assemblers_.push_back(std::make_unique<net::FrameAssembler>());
    next_seq_.push_back(0);
  }
  for (std::size_t k = 0; k < n; ++k) {
    recs[k].stream = sched[k].stream;
    recs[k].seq = next_seq_[sched[k].stream]++;
    recs[k].frame =
        static_cast<std::uint32_t>(book_.frame_of(recs[k].stream, recs[k].seq));
  }
  produced_.store(0);
  consumed_.store(0);
  std::thread collector([this, &recs] { collect(recs); });

  net::AssembledFrame af;
  std::size_t prepared = 0;
  const auto origin = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t k = 0; k < n; ++k) {
    TickRec& rec = recs[k];
    rec.due = origin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(sched[k].due_s));
    // Seal upcoming ticks' packets while there is slack before this one.
    while (prepared < std::min(n, k + kLookahead) &&
           (prepared <= k ||
            Clock::now() + std::chrono::microseconds(50) < rec.due)) {
      prepare(prepared++, sched, recs);
    }
    wait_until(rec.due);
    rec.picked = Clock::now();
    const auto& deliveries = ring_[k % kLookahead];
    assemblers_[rec.stream]->assemble_into(rec.seq, deliveries, af);
    rec.assembled = Clock::now();
    rec.bad_frame = af.packets_used != deliveries.size();
    tensor::Tensor frame = d_.bundle.standardizer.transform(af.raw);
    rec.standardized = Clock::now();
    rec.key = frame.data();
    // Slot reuse needs the collector to have finished with it; 512 slots
    // in flight would mean a backlog of over a second, so this never waits
    // in a healthy run.
    while (k >= kSlots + consumed_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    rec.slot = &slots_[k % kSlots];
    const double budget_ms =
        std::max(1e-3, kDeadlineMs - ms_between(rec.due, Clock::now()));
    rec.shed = gateway_->submit_into(frame, *rec.slot, rec.stream,
                                     budget_ms) != serve::RejectReason::kNone;
    rec.submitted = Clock::now();
    produced_.store(k + 1, std::memory_order_release);
    produced_.notify_one();
  }

  // Drain: every admitted tick must be answered.
  const auto give_up =
      (n ? recs[n - 1].due : Clock::now()) +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kDrainTimeoutS));
  while (consumed_.load(std::memory_order_acquire) < n &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (consumed_.load(std::memory_order_acquire) < n) {
    // Stop the gateway (it serves everything admitted, then joins its
    // replicas); any slot still unpublished after that was lost.
    gateway_->stop();
    for (std::size_t k = consumed_.load(); k < n; ++k) {
      if (!recs[k].shed && !recs[k].slot->ready()) {
        recs[k].lost = true;
        recs[k].slot->publish();
      }
    }
  }
  collector.join();
}

/// Tick outcomes of a phase.
TickStats summarize(const std::vector<TickRec>& recs) {
  TickStats s;
  s.latency_ms.reserve(recs.size());
  s.lag_ms.reserve(recs.size());
  Clock::time_point last = recs.empty() ? Clock::now() : recs.front().due;
  for (const auto& r : recs) {
    s.lag_ms.add(ms_between(r.due, r.picked));
    if (r.shed) {
      s.failed_tick(s.shed);
    } else if (r.lost) {
      s.failed_tick(s.lost);
    } else if (r.duplicate) {
      s.failed_tick(s.duplicated);
    } else if (!r.correct) {
      s.failed_tick(s.divergent);
    } else if (r.bad_frame) {
      s.failed_tick(s.errored);
    } else {
      s.answered(ms_between(r.due, r.decided));
      last = std::max(last, r.decided);
    }
  }
  if (!recs.empty()) {
    s.wall_s = seconds_between(recs.front().due, last);
    std::vector<double> tail;
    for (std::size_t k = recs.size() - recs.size() / 10; k < recs.size(); ++k) {
      tail.push_back(ms_between(recs[k].due, recs[k].picked));
    }
    s.tail_lag_ms = median(tail);
  }
  return s;
}

/// A measurement on one gateway instance: an unmeasured lead-in at the
/// measured load, then the measured schedule.
struct Leg {
  std::vector<Event> lead_in;
  std::vector<Event> measured;
};

/// Ticks pooled over several fresh gateways.
struct Pool {
  TickStats stats;
  std::vector<TickStats> instances;
  std::vector<TickRec> recs;  ///< kept only when traced
  std::uint64_t packets_rejected = 0;
};

/// Run `leg` on one more fresh gateway and add its measured ticks to `p`
/// (see the note on serving instances in bench.hpp).
void run_instance(const Deployment& d, const TickBook& book, const Leg& l,
                  BatchLedger* ledger, Result& r, const std::string& what,
                  Pool& p) {
  auto node = std::make_unique<EdgeNode>(d, book, ledger);
  std::vector<TickRec> recs;
  if (ledger != nullptr) ledger->set_recording(false);
  node->run(l.lead_in, recs);
  check_exact(r, summarize(recs), what + " lead-in");
  if (ledger != nullptr) ledger->set_recording(true);
  node->run(l.measured, recs);
  TickStats st = summarize(recs);
  p.stats.merge(st);
  p.instances.push_back(std::move(st));
  p.packets_rejected += node->packets_rejected();
  if (ledger != nullptr) p.recs.insert(p.recs.end(), recs.begin(), recs.end());
}

/// One max_streams level on a warm gateway: about kLevelFrames frames at
/// `streams` synchronized streams; returns its deadline_met_frac.
double run_level(EdgeNode& node, std::size_t streams, Result& r) {
  std::vector<TickRec> recs;
  node.run(sync_schedule(streams, (kLevelFrames + streams - 1) / streams),
           recs);
  const TickStats st = summarize(recs);
  check_exact(r, st, "max_streams level " + std::to_string(streams));
  return st.met_frac();
}

/// A fresh gateway after an unmeasured lead-in at `streams`.
std::unique_ptr<EdgeNode> warm_node(const Deployment& d, const TickBook& book,
                                    std::size_t streams, Result& r) {
  auto node = std::make_unique<EdgeNode>(d, book, nullptr);
  std::vector<TickRec> recs;
  node->run(sync_schedule(streams, kLeadInTicks), recs);
  check_exact(r, summarize(recs), "max_streams lead-in");
  return node;
}

/// max_streams: the most synchronized 3 ms streams at which
/// deadline_met_frac >= 0.99, in steps of one stream.
///
/// A few fresh gateways each run a stepped ramp (ramp()) from the fixed
/// load; the median of their capacities centres a window of kWindow
/// levels. kSweepRounds fresh gateways then each run every level of the
/// window in turn (up on even rounds, down on odd ones, so drift of the
/// host's speed during the sweep reaches every level alike), and a level
/// passes when the median of its rounds' met fractions does. The answer is
/// one below the lowest failing level. A window whose lowest level fails
/// is followed by the window below it, one whose levels all pass by the
/// window above, so the search is never cut short by time.
std::size_t find_max_streams(const Deployment& d, const TickBook& book,
                             Result& r) {
  const auto t0 = Clock::now();
  std::vector<double> coarse;
  for (std::size_t i = 0; i < kCoarseRamps; ++i) {
    auto node = warm_node(d, book, kFixedStreams, r);
    coarse.push_back(static_cast<double>(ramp(
        kFixedStreams,
        [&](std::size_t n) { return run_level(*node, n, r); }, r)));
  }
  const auto centre = static_cast<std::size_t>(median(coarse));
  r.facts["max_streams_coarse"] = median(coarse);

  std::map<std::size_t, std::vector<double>> met;  // level -> per round
  const auto sweep = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = 0; k < kSweepRounds; ++k) {
      auto node = warm_node(d, book, lo, r);
      for (std::size_t j = 0; j <= hi - lo; ++j) {
        const std::size_t n = k % 2 ? hi - j : lo + j;
        met[n].push_back(run_level(*node, n, r));
      }
    }
  };
  std::size_t lo = centre > kWindow / 2 ? centre - kWindow / 2 : 1;
  std::size_t hi = std::min(kRampMaxStreams, lo + kWindow - 1);
  std::size_t answer = 0;
  for (;;) {
    sweep(lo, hi);
    // Tested levels are contiguous: met.begin()->first .. rbegin()->first.
    const std::size_t tested_lo = met.begin()->first;
    const std::size_t tested_hi = met.rbegin()->first;
    std::size_t first_fail = 0;
    for (const auto& [n, rounds] : met) {
      r.facts["max_streams_met." + std::to_string(n)] = median(rounds);
      if (first_fail == 0 && median(rounds) < kRampPass) first_fail = n;
    }
    if (first_fail == tested_lo && tested_lo > 1) {
      hi = tested_lo - 1;
      lo = hi > kWindow ? hi - kWindow + 1 : 1;
    } else if (first_fail == 0 && tested_hi < kRampMaxStreams) {
      lo = tested_hi + 1;
      hi = std::min(kRampMaxStreams, lo + kWindow - 1);
    } else {
      if (first_fail == 0) {
        r.problem("max_streams reached its ceiling of " +
                  std::to_string(kRampMaxStreams) + " streams still passing");
      }
      answer = first_fail == 0 ? tested_hi : first_fail - 1;
      break;
    }
  }
  r.facts["max_streams_seconds"] = seconds_between(t0, Clock::now());
  return answer;
}

/// Per-layer numbers of a traced phase, its Chrome trace, and the stage
/// reconciliation check.
void report_layers(Result& r, Pool& pool, BatchLedger& ledger,
                   const Options& o, double untraced_p50_ms) {
  const std::vector<TickRec>& recs = pool.recs;
  util::Percentiles lag, assemble, standardize, submit, queue, handoff,
      decide;
  std::uint64_t reconciled = 0, staged = 0;
  std::uint64_t shed = 0;
  Trace trace(recs.size() * 9);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    const auto& t = recs[k];
    lag.add(ms_between(t.due, t.picked));
    if (t.shed) ++shed;
    if (t.shed || t.lost || !t.batch) continue;
    assemble.add(us_between(t.picked, t.assembled));
    standardize.add(us_between(t.assembled, t.standardized));
    submit.add(us_between(t.standardized, t.submitted));
    queue.add(t.queue_ms);
    handoff.add(us_between(t.batch->t1, t.woke));
    decide.add(us_between(t.woke, t.decided));
    // Stages in order: lag, assemble, standardize, submit, queue wait (the
    // gateway's own arrival->batch-start figure), backend call, hand-off
    // (backend return -> client wake), decide.
    const double stages_us =
        us_between(t.due, t.submitted) + t.queue_ms * 1e3 +
        us_between(t.batch->t0, t.batch->t1) + us_between(t.batch->t1, t.woke) +
        us_between(t.woke, t.decided);
    ++staged;
    if (std::abs(us_between(t.due, t.decided) - stages_us) <=
        kStageToleranceUs) {
      ++reconciled;
    }

    const auto lane = t.stream;
    const auto tick = static_cast<std::uint32_t>(k);
    const auto root = trace.add("tick", t.due, t.decided, tick, -1, lane);
    trace.add("loadgen.lag", t.due, t.picked, tick, root, lane);
    trace.add("net.assemble", t.picked, t.assembled, tick, root, lane);
    trace.add("core.standardize", t.assembled, t.standardized, tick, root,
              lane);
    trace.add("serve.submit", t.standardized, t.submitted, tick, root, lane);
    trace.add("serve.queue", t.submitted, t.batch->t0, tick, root, lane);
    trace.add("hls.backend", t.batch->t0, t.batch->t1, tick, root, lane);
    trace.add("serve.handoff", t.batch->t1, t.woke, tick, root, lane);
    trace.add("core.decide", t.woke, t.decided, tick, root, lane);
  }
  if (!recs.empty()) {
    trace.write_chrome(o.out_dir + "/trace-" + o.workload + ".json",
                       recs.front().due);
  }
  const auto totals = ledger.totals();
  const double wall_ms = pool.stats.wall_s * 1e3;

  r.metric("loadgen.lag_ms_p99", pct(lag, 99.0));
  r.metric("loadgen.ticks", static_cast<double>(recs.size()));
  r.metric("net.assemble_us_p50", pct(assemble, 50.0));
  r.metric("net.packets_rejected", static_cast<double>(pool.packets_rejected));
  r.metric("serve.submit_us_p50", pct(submit, 50.0));
  r.metric("serve.queue_wait_ms_p50", pct(queue, 50.0));
  r.metric("serve.queue_wait_ms_p99", pct(queue, 99.0));
  r.metric("serve.batch_frames_mean",
           totals.calls ? static_cast<double>(totals.frames) /
                              static_cast<double>(totals.calls)
                        : 0.0);
  r.metric("serve.handoff_us_p50", pct(handoff, 50.0));
  r.metric("serve.handoff_us_p99", pct(handoff, 99.0));
  r.metric("serve.shed_frac", recs.empty() ? 0.0
                                           : static_cast<double>(shed) /
                                                 static_cast<double>(recs.size()));
  r.metric("serve.replica_busy_frac",
           wall_ms > 0.0 ? totals.busy_ms / (wall_ms * kReplicas) : 0.0);
  r.metric("hls.backend_ms_per_frame",
           totals.frames ? totals.busy_ms / static_cast<double>(totals.frames)
                         : 0.0);
  r.metric("hls.backend_call_ms_p99", totals.call_ms_p99);
  r.metric("core.standardize_us_p50", pct(standardize, 50.0));
  r.metric("core.decide_us_p50", pct(decide, 50.0));
  const double traced_p50_ms = pct(pool.stats.latency_ms, 50.0);
  r.metric("trace.overhead_frac",
           untraced_p50_ms > 0.0 ? traced_p50_ms / untraced_p50_ms - 1.0 : 0.0);
  const double share =
      staged ? static_cast<double>(reconciled) / static_cast<double>(staged)
             : 0.0;
  r.metric("trace.stages_reconciled_frac", share);
  r.facts["trace_spans"] = static_cast<double>(trace.size());
  r.facts["stage_tolerance_us"] = kStageToleranceUs;
  if (share < kStageReconciledFrac) {
    r.problem("per-tick stage times do not add up to the tick latency");
  }
}

}  // namespace

Result run_edge(const Options& o) {
  // edge_sync: the paper's real traffic, 8 streams with all hubs ticking
  // together. Burst depth x kernel time / replicas sets the tail, so kernel
  // gains and micro-batching changes show here. Loads net, serve, hls and
  // core; bypasses cluster.
  Result r;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // precise open-loop sleeps

  // Set-up, repeated: load + compile, then stand up the gateway.
  std::vector<SetupTimes> setups;
  std::optional<Deployment> dep;
  std::optional<TickBook> ticks;
  for (int i = 0; i < kSetupRepeats; ++i) {
    SetupTimes t;
    dep.emplace(Deployment::load(o.model_cache, false, t));
    if (!ticks) ticks.emplace(make_ticks(*dep, 64, o.seed));
    const auto s0 = Clock::now();
    auto node = std::make_unique<EdgeNode>(*dep, *ticks, nullptr);
    t.spawn_s = seconds_between(s0, Clock::now());
    setups.push_back(t);
  }
  report_setup(r, setups);
  report_firmware(r, dep->fw16);
  const TickBook& book = *ticks;

  // The fixed-load phase: kFixedInstances fresh gateways share all of
  // --seconds untraced; a traced run measures it twice, in half the time
  // each.
  const double phase_s = o.trace ? 0.5 * o.seconds : o.seconds;
  const auto leg_ticks = static_cast<std::size_t>(std::ceil(
      phase_s / static_cast<double>(kFixedInstances) / kTickPeriodS));
  const Leg fixed_leg{sync_schedule(kFixedStreams, kLeadInTicks),
                      sync_schedule(kFixedStreams, leg_ticks)};
  Pool fixed;
  for (std::size_t i = 0; i < kFixedInstances; ++i) {
    run_instance(*dep, book, fixed_leg, nullptr, r, "fixed phase", fixed);
  }
  report_ticks(r, fixed.instances);
  r.metric("frames_per_s", kNotApplicable);
  if (!o.trace) return r;

  // Traced run: the same fixed phase again through timed backends.
  BatchLedger ledger(true);
  Pool traced;
  for (std::size_t i = 0; i < kFixedInstances; ++i) {
    run_instance(*dep, book, fixed_leg, &ledger, r, "traced phase", traced);
  }
  r.attempted += traced.stats.attempted;
  r.failed += traced.stats.failed();
  check_exact(r, traced.stats, "traced phase");
  report_layers(r, traced, ledger, o, pct(fixed.stats.latency_ms, 50.0));
  // The capacity search runs plain gateways; it reports with the layers
  // because it cannot hold an end-to-end bound (see README.md).
  r.metric("max_streams",
           static_cast<double>(find_max_streams(*dep, book, r)));
  return r;
}

}  // namespace edgebench
