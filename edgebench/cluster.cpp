// cluster_uds: one client sends ticks to cluster::Router, which serves two
// replica child processes over Unix domain sockets. The router hop, the
// wire protocol and the sockets dominate here, and kernel time is a small
// share; edge_sync bypasses all of it.
//
// The client is open loop with a dedicated reader thread on its single
// connection, so it drains results as fast as the router writes them and
// never trips the router's slow-consumer defense. Every tick is
// best-effort class, so router admission does not censor the latency
// sample: a tick late by the 3 ms budget is measured late, not shed.
#include <csignal>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "cluster/client.hpp"
#include "cluster/io.hpp"
#include "cluster/proc.hpp"
#include "cluster/protocol.hpp"
#include "cluster/replica_server.hpp"
#include "cluster/router.hpp"
#include "serve/metrics.hpp"
#include "trace.hpp"

namespace edgebench {

namespace {

constexpr std::size_t kReplicaProcs = 2;
constexpr std::size_t kFixedStreams = 4;
/// Fresh clusters (router + replica children) pooled in the fixed-load
/// phase (see the note on serving instances in bench.hpp).
constexpr std::size_t kFixedInstances = 16;
constexpr std::size_t kLookahead = 64;
constexpr double kDrainTimeoutS = 5.0;
constexpr double kChildStartTimeoutMs = 120000.0;

// ---- replica child --------------------------------------------------------

cluster::ReplicaServer* g_server = nullptr;
extern "C" void on_sigterm(int) {
  if (g_server != nullptr) g_server->request_stop();
}

// ---- parent side ----------------------------------------------------------

/// What a replica child reports when it exits: its frame decoder's median
/// time and its backend's busy time.
struct ChildReport {
  double decode_us_p50 = 0.0;
  double decodes = 0.0;
  double backend_ms = 0.0;
  double backend_frames = 0.0;
};

/// Two replica children, the router (on a thread of this process) and the
/// client connection. Tears everything down on destruction.
class Rig {
 public:
  Rig(const std::string& exe, const Options& o, int generation,
      SetupTimes& times);
  ~Rig() { shutdown(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  cluster::Router& router() { return *router_; }
  int client_fd() const { return client_.get(); }
  const std::vector<std::string>& endpoints() const { return endpoints_; }

  /// Stop router and children; returns the children's exit reports.
  std::vector<ChildReport> shutdown();

 private:
  void start(const std::string& exe, const Options& o, int generation,
             SetupTimes& times);

  std::vector<cluster::ChildProcess> children_;
  std::vector<std::string> endpoints_;
  std::string router_path_;
  std::unique_ptr<cluster::Router> router_;
  std::thread router_thread_;
  cluster::Fd client_;
};

Rig::Rig(const std::string& exe, const Options& o, int generation,
         SetupTimes& times) {
  try {
    start(exe, o, generation, times);
  } catch (...) {
    shutdown();  // a router thread left running would end the process
    throw;
  }
}

void Rig::start(const std::string& exe, const Options& o, int generation,
                SetupTimes& times) {
  const auto t0 = Clock::now();
  const std::string base = o.out_dir + "/uds-" + std::to_string(::getpid()) +
                           "-" + std::to_string(generation);
  // Each replica process inherits a serving core of its own; the router
  // thread shares the client's two.
  for (std::size_t i = 0; i < kReplicaProcs; ++i) {
    pin_this_thread({*(kServingCpus.begin() + i % kServingCpus.size())});
    children_.push_back(cluster::spawn(
        {exe, "--role", "replica", "--listen",
         "uds:" + base + "-r" + std::to_string(i) + ".sock", "--model-cache",
         o.model_cache}));
  }
  // Children load and compile in parallel; set-up waits for the slower.
  for (auto& child : children_) {
    std::istringstream ready(child.read_line(kChildStartTimeoutMs));
    std::string tag, endpoint;
    double load_s = 0.0, compile_s = 0.0;
    ready >> tag >> endpoint >> load_s >> compile_s;
    if (tag != "READY") {
      throw std::runtime_error("replica child failed to start");
    }
    endpoints_.push_back(endpoint);
    times.model_load_s = std::max(times.model_load_s, load_s);
    times.compile_s = std::max(times.compile_s, compile_s);
  }
  pin_this_thread({0, 1});
  cluster::RouterConfig cfg;
  router_path_ = base + "-router.sock";
  cfg.listen = cluster::Endpoint::parse("uds:" + router_path_);
  cfg.replicas = endpoints_;
  cfg.hard_deadline_ms = kDeadlineMs;
  router_ = std::make_unique<cluster::Router>(cfg);
  router_thread_ = std::thread([this] { router_->run(); });
  pin_this_thread(kGeneratorCpus);
  client_ = cluster::connect_to(router_->bound(), 5000.0);
  std::vector<std::uint8_t> hello;
  cluster::append_hello(hello, cluster::Hello{cluster::Role::kClient,
                                              cluster::kProtocolVersion});
  if (!cluster::write_all(client_.get(), hello.data(), hello.size(), 5000.0)) {
    throw std::runtime_error("client hello failed");
  }
  times.spawn_s =
      seconds_between(t0, Clock::now()) - times.model_load_s - times.compile_s;
}

std::vector<ChildReport> Rig::shutdown() {
  std::vector<ChildReport> reports;
  client_.reset();
  if (router_) {
    router_->request_stop();
    if (router_thread_.joinable()) router_thread_.join();
    router_.reset();
    ::unlink(router_path_.c_str());
  }
  for (std::size_t i = 0; i < children_.size(); ++i) {
    children_[i].terminate(10000.0);
    ChildReport rep;
    for (;;) {
      std::istringstream line(children_[i].read_line(2000.0));
      std::string tag;
      if (!(line >> tag)) break;
      if (tag != "LAYERS") continue;
      line >> rep.decode_us_p50 >> rep.decodes >> rep.backend_ms >>
          rep.backend_frames;
      reports.push_back(rep);
      break;
    }
    if (i < endpoints_.size() && endpoints_[i].rfind("uds:", 0) == 0) {
      ::unlink(endpoints_[i].c_str() + 4);
    }
  }
  children_.clear();
  endpoints_.clear();
  return reports;
}

struct ClusterTick {
  Clock::time_point due{}, sent0{}, sent1{}, received{}, decided{};
  std::uint32_t stream = 0;
  std::uint32_t seq = 0;
  std::uint32_t frame = 0;
  std::size_t submit_bytes = 0;
  std::size_t result_bytes = 0;
  bool answered = false;
  bool shed = false;
  bool duplicate = false;
  bool correct = false;
};

/// One open-loop phase through the rig. The reader thread owns the read
/// side of the client socket; this thread owns the write side.
class Phase {
 public:
  /// `next_seq` (per stream) and `next_req` carry over between the phases
  /// run on one rig: its router keeps per-stream assembler state.
  Phase(Rig& rig, const TickBook& book, std::vector<std::uint32_t>& next_seq,
        std::uint64_t& next_req)
      : rig_(rig), book_(book), next_seq_(next_seq), next_req_(next_req) {}

  std::vector<ClusterTick> run(const std::vector<Event>& sched);

 private:
  void read_loop(std::vector<ClusterTick>& ticks);
  void on_message(const cluster::Message& msg, std::vector<ClusterTick>& ticks);

  Rig& rig_;
  const TickBook& book_;
  std::vector<std::uint32_t>& next_seq_;
  std::uint64_t& next_req_;
  std::uint64_t base_ = 0;
  std::atomic<std::size_t> produced_{0};
  std::atomic<std::size_t> settled_{0};
  std::atomic<bool> stop_{false};
};

void Phase::on_message(const cluster::Message& msg,
                       std::vector<ClusterTick>& ticks) {
  const auto received = Clock::now();
  std::uint64_t id = 0;
  cluster::Result res;
  const bool is_result = msg.type == cluster::MsgType::kResult;
  if (is_result) {
    res = cluster::decode_result(msg.payload);
    id = res.id;
  } else if (msg.type == cluster::MsgType::kShed) {
    id = cluster::decode_shed(msg.payload).id;
  } else {
    return;
  }
  const std::size_t k = static_cast<std::size_t>(id - base_);
  if (id < base_ || k >= produced_.load(std::memory_order_acquire)) return;
  ClusterTick& t = ticks[k];
  if (t.answered) {
    t.duplicate = true;
    return;
  }
  t.received = received;
  t.result_bytes = msg.payload.size() + cluster::kEnvelopeHeader;
  if (is_result) {
    std::vector<std::size_t> shape(res.dims.begin(), res.dims.end());
    const core::Decision decision = core::decide(
        tensor::Tensor::from(std::move(shape), std::move(res.data)),
        kTripThreshold);
    t.decided = Clock::now();
    t.correct = book_.matches(t.frame, decision.probabilities.flat(),
                              decision.target);
  } else {
    t.shed = true;
  }
  t.answered = true;
  settled_.fetch_add(1, std::memory_order_release);
}

void Phase::read_loop(std::vector<ClusterTick>& ticks) {
  pin_this_thread(kCollectorCpus);
  cluster::MessageReader reader;
  cluster::Poller poller;
  std::vector<std::uint8_t> buf(64 * 1024);
  const int fd = rig_.client_fd();
  while (!stop_.load(std::memory_order_acquire)) {
    while (auto msg = reader.next()) on_message(*msg, ticks);
    if (reader.broken()) return;
    poller.clear();
    poller.want(fd, true, false);
    poller.wait(10);
    for (;;) {
      const auto n = cluster::read_some(fd, buf.data(), buf.size());
      if (n <= 0) {
        if (n < 0) return;  // connection gone: unanswered ticks are lost
        break;
      }
      reader.feed(buf.data(), static_cast<std::size_t>(n));
    }
  }
}

std::vector<ClusterTick> Phase::run(const std::vector<Event>& sched) {
  const std::size_t n = sched.size();
  std::vector<ClusterTick> ticks(n);
  std::uint32_t max_stream = 0;
  for (const auto& e : sched) max_stream = std::max(max_stream, e.stream);
  if (next_seq_.size() <= max_stream) next_seq_.resize(max_stream + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    ticks[k].stream = sched[k].stream;
    ticks[k].seq = next_seq_[sched[k].stream]++;
    ticks[k].frame = static_cast<std::uint32_t>(
        book_.frame_of(ticks[k].stream, ticks[k].seq));
  }
  base_ = next_req_;
  next_req_ += n;
  std::thread reader([this, &ticks] { read_loop(ticks); });

  std::vector<cluster::Submit> ring(kLookahead);
  std::vector<net::Delivery> deliveries;
  const auto prepare = [&](std::size_t j) {
    auto& s = ring[j % kLookahead];
    s.stream = ticks[j].stream;
    s.req_id = base_ + j;
    s.slo = 1;  // best effort: admission never censors the latency sample
    book_.fill(ticks[j].stream, ticks[j].seq, deliveries);
    s.packets.resize(deliveries.size());
    for (std::size_t h = 0; h < deliveries.size(); ++h) {
      s.packets[h] = deliveries[h].packet;
    }
  };
  std::vector<std::uint8_t> bytes;
  std::size_t prepared = 0;
  const auto origin = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t k = 0; k < n; ++k) {
    ClusterTick& t = ticks[k];
    t.due = origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(sched[k].due_s));
    while (prepared < std::min(n, k + kLookahead) &&
           (prepared <= k ||
            Clock::now() + std::chrono::microseconds(50) < t.due)) {
      prepare(prepared++);
    }
    wait_until(t.due);
    produced_.store(k + 1, std::memory_order_release);
    t.sent0 = Clock::now();
    bytes.clear();
    cluster::append_submit(bytes, ring[k % kLookahead]);
    const bool ok =
        cluster::write_all(rig_.client_fd(), bytes.data(), bytes.size(), 1000.0);
    t.sent1 = Clock::now();
    t.submit_bytes = bytes.size();
    if (!ok) break;  // the connection died; the rest count as lost
  }
  const auto give_up = Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kDrainTimeoutS));
  while (settled_.load(std::memory_order_acquire) < n &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_.store(true, std::memory_order_release);
  reader.join();
  return ticks;
}

TickStats summarize(const std::vector<ClusterTick>& ticks) {
  TickStats s;
  s.latency_ms.reserve(ticks.size());
  Clock::time_point last = ticks.empty() ? Clock::now() : ticks.front().due;
  std::vector<double> lag;
  for (const auto& t : ticks) {
    lag.push_back(ms_between(t.due, t.sent0));
    s.lag_ms.add(lag.back());
    if (!t.answered) {
      s.failed_tick(s.lost);
    } else if (t.duplicate) {
      s.failed_tick(s.duplicated);
    } else if (t.shed) {
      s.failed_tick(s.shed);
    } else if (!t.correct) {
      s.failed_tick(s.divergent);
    } else {
      s.answered(ms_between(t.due, t.decided));
      last = std::max(last, t.decided);
    }
  }
  if (!ticks.empty()) {
    s.wall_s = seconds_between(ticks.front().due, last);
    s.tail_lag_ms = median(
        std::vector<double>(lag.end() - static_cast<std::ptrdiff_t>(lag.size() / 10),
                            lag.end()));
  }
  return s;
}

/// `"key": <number>` values in a stats JSON document, in order.
std::vector<double> scan_numbers(const std::string& json,
                                 const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\": ";
  for (auto pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    out.push_back(std::strtod(json.c_str() + pos + needle.size(), nullptr));
  }
  return out;
}

double scan_counter(const std::string& json, const std::string& key) {
  const auto v = scan_numbers(json, key);
  return v.empty() ? 0.0 : v.front();
}

/// Ticks and layer views pooled over several fresh clusters.
struct Pool {
  TickStats stats;
  std::vector<TickStats> instances;
  std::vector<ClusterTick> ticks;  ///< measured legs, all instances
  serve::MetricsSnapshot replicas;  ///< merged replica gateway snapshots
  std::vector<ChildReport> reports;
  std::vector<double> rtts;  ///< router per-replica round-trip estimates
  double outbuf_overflows = 0.0;
  double undeliverable = 0.0;
  double redispatched = 0.0;
  double outbuf_high_water = 0.0;
};

/// Run `lead_in` (unmeasured) then `measured` on each of `instances` fresh
/// clusters (two replica children and a router), pooling the measured
/// ticks (see the note on serving instances in bench.hpp). With `layers`,
/// also collect the replicas' and router's own views.
Pool run_pool(const std::string& exe, const Options& o, const TickBook& book,
              std::size_t instances, const std::vector<Event>& lead_in,
              const std::vector<Event>& measured, bool layers, Result& r,
              const std::string& what, int& generation) {
  Pool p;
  for (std::size_t i = 0; i < instances; ++i) {
    SetupTimes unused;
    Rig rig(exe, o, generation++, unused);
    std::vector<std::uint32_t> next_seq;
    std::uint64_t next_req = 1;
    check_exact(r,
                summarize(Phase(rig, book, next_seq, next_req).run(lead_in)),
                what + " lead-in");
    auto ticks = Phase(rig, book, next_seq, next_req).run(measured);
    p.instances.push_back(summarize(ticks));
    p.stats.merge(p.instances.back());
    if (layers) {
      p.ticks.insert(p.ticks.end(), ticks.begin(), ticks.end());
      for (const auto& ep : rig.endpoints()) {
        cluster::ClusterClient admin(ep, cluster::Role::kAdmin);
        const std::string js = admin.stats(5000.0);
        if (js.empty()) throw std::runtime_error("replica stats timed out");
        p.replicas.merge(serve::MetricsSnapshot::from_json(js));
      }
    }
    const std::string stats = rig.router().stats_json();
    p.outbuf_overflows += scan_counter(stats, "outbuf_overflows");
    p.undeliverable += scan_counter(stats, "undeliverable_results");
    p.redispatched += scan_counter(stats, "redispatched_jobs");
    p.outbuf_high_water = std::max(
        p.outbuf_high_water, scan_counter(stats, "client_outbuf_high_water"));
    for (double v : scan_numbers(stats, "rtt_est_ms")) p.rtts.push_back(v);
    for (const auto& rep : rig.shutdown()) p.reports.push_back(rep);
  }
  // The router's slow-consumer defense must never fire on the benchmark's
  // client: a dropped client would lose ticks for reasons of the harness.
  r.facts["router_outbuf_overflows"] += p.outbuf_overflows;
  r.facts["router_undeliverable_results"] += p.undeliverable;
  if (p.outbuf_overflows > 0.0 || p.undeliverable > 0.0) {
    r.problem("the router's slow-consumer defense dropped the client");
  }
  return p;
}

}  // namespace

int replica_main(const std::string& listen, const std::string& model_cache) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
  if (::getppid() == 1) return 1;      // the parent died before the prctl
  SetupTimes t;
  const Deployment d = Deployment::load(model_cache, false, t);
  BatchLedger ledger(false);
  util::Percentiles decode_us;
  std::vector<std::unique_ptr<serve::Backend>> backends;
  backends.push_back(std::make_unique<TimedBackend>(d.fw16, ledger));
  cluster::ReplicaServerConfig cfg;
  cfg.listen = cluster::Endpoint::parse(listen);
  cfg.gateway.max_batch = 4;
  cfg.gateway.deadline_ms = kDeadlineMs;
  // As in edge_sync: a late tick is measured late, not shed.
  cfg.gateway.admission_control = false;
  cfg.gateway.sharding = serve::ShardPolicy::kByStream;
  const train::Standardizer& standardizer = d.bundle.standardizer;
  // The frame decoder runs on the server's event-loop thread only.
  cluster::ReplicaServer server(
      cfg, std::move(backends),
      [&](std::span<const std::uint32_t> readings, tensor::Tensor& out) {
        const auto t0 = Clock::now();
        out = decode_frame(readings, standardizer);
        decode_us.add(us_between(t0, Clock::now()));
      });
  g_server = &server;
  std::signal(SIGTERM, on_sigterm);
  std::cout << "READY " << server.bound().str() << " " << t.model_load_s
            << " " << t.compile_s << std::endl;
  server.run();
  const auto totals = ledger.totals();
  std::cout << "LAYERS " << pct(decode_us, 50.0) << " " << decode_us.count()
            << " " << totals.busy_ms << " " << totals.frames << std::endl;
  return 0;
}

Result run_cluster(const Options& o, const std::string& self_exe) {
  Result r;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // The parent only needs the model for the oracle; set-up is the cluster.
  SetupTimes unused;
  const Deployment d = Deployment::load(o.model_cache, false, unused);
  const TickBook book = make_ticks(d, 64, o.seed);
  report_firmware(r, d.fw16);

  int generation = 0;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    SetupTimes t;
    Rig rig(self_exe, o, generation++, t);
    setups.push_back(t);
  }
  report_setup(r, setups);

  // The fixed load takes the whole of --seconds, split over the instances.
  const auto leg_ticks = static_cast<std::size_t>(std::ceil(
      o.seconds / static_cast<double>(kFixedInstances) / kTickPeriodS));
  const auto lead_in = sync_schedule(kFixedStreams, kLeadInTicks);
  const auto measured = sync_schedule(kFixedStreams, leg_ticks);
  Pool fixed = run_pool(self_exe, o, book, kFixedInstances, lead_in, measured,
                        false, r, "fixed phase", generation);
  report_ticks(r, fixed.instances);
  r.metric("frames_per_s", kNotApplicable);
  if (!o.trace) return r;

  // Traced run: the same fixed phase again, with client-side spans and the
  // replicas' and router's own views.
  Pool traced = run_pool(self_exe, o, book, kFixedInstances, lead_in, measured,
                         true, r, "traced phase", generation);
  TickStats& ts = traced.stats;
  r.attempted += ts.attempted;
  r.failed += ts.failed();
  check_exact(r, ts, "traced phase");
  Trace trace(traced.ticks.size() * 5);
  util::Percentiles submit_us, decide_us, lag;
  double submit_bytes = 0.0, result_bytes = 0.0, answered = 0.0;
  for (std::size_t k = 0; k < traced.ticks.size(); ++k) {
    const auto& t = traced.ticks[k];
    lag.add(ms_between(t.due, t.sent0));
    submit_us.add(us_between(t.sent0, t.sent1));
    if (!t.answered || t.shed) continue;
    decide_us.add(us_between(t.received, t.decided));
    submit_bytes += static_cast<double>(t.submit_bytes);
    result_bytes += static_cast<double>(t.result_bytes);
    answered += 1.0;
    const auto tick = static_cast<std::uint32_t>(k);
    const auto root = trace.add("tick", t.due, t.decided, tick, -1, t.stream);
    trace.add("loadgen.lag", t.due, t.sent0, tick, root, t.stream);
    trace.add("cluster.client_submit", t.sent0, t.sent1, tick, root, t.stream);
    trace.add("cluster.router_and_replica", t.sent1, t.received, tick, root,
              t.stream);
    trace.add("core.decide", t.received, t.decided, tick, root, t.stream);
  }
  if (!traced.ticks.empty()) {
    trace.write_chrome(o.out_dir + "/trace-" + o.workload + ".json",
                       traced.ticks.front().due);
  }
  double decode_w = 0.0, decodes = 0.0, busy_ms = 0.0, frames = 0.0;
  for (const auto& rep : traced.reports) {
    decode_w += rep.decode_us_p50 * rep.decodes;
    decodes += rep.decodes;
    busy_ms += rep.backend_ms;
    frames += rep.backend_frames;
  }
  // The job envelope on the router->replica leg, from the same encoder the
  // router uses; the result envelope has the same size on both legs.
  cluster::Job job;
  job.packet.readings.resize(book.counts.front().size());
  std::vector<std::uint8_t> job_bytes;
  cluster::append_job(job_bytes, job);
  const double tick_p50 = pct(ts.latency_ms, 50.0);
  const double replica_p50 = pct(traced.replicas.e2e_samples, 50.0);
  r.metric("loadgen.lag_ms_p99", pct(lag, 99.0));
  r.metric("loadgen.ticks", static_cast<double>(traced.ticks.size()));
  r.metric("core.decide_us_p50", pct(decide_us, 50.0));
  r.metric("cluster.client_submit_us_p50", pct(submit_us, 50.0));
  r.metric("cluster.decode_us_p50", decodes > 0.0 ? decode_w / decodes : 0.0);
  r.metric("cluster.backend_ms_per_frame", frames > 0.0 ? busy_ms / frames : 0.0);
  r.metric("cluster.replica_e2e_ms_p50", replica_p50);
  r.metric("cluster.replica_e2e_ms_p99", pct(traced.replicas.e2e_samples, 99.0));
  r.metric("cluster.hop_ms_p50", tick_p50 - replica_p50);
  r.metric("cluster.router_rtt_est_ms", median(traced.rtts));
  r.metric("cluster.bytes_per_tick",
           answered > 0.0 ? submit_bytes / answered +
                                static_cast<double>(job_bytes.size()) +
                                2.0 * result_bytes / answered
                          : 0.0);
  r.metric("cluster.outbuf_high_water_bytes", traced.outbuf_high_water);
  r.metric("cluster.router_sheds", static_cast<double>(ts.shed));
  r.metric("cluster.redispatched_jobs", traced.redispatched);
  r.metric("cluster.outbuf_overflows", traced.outbuf_overflows);
  r.metric("cluster.undeliverable_results", traced.undeliverable);
  const double untraced_p50 = pct(fixed.stats.latency_ms, 50.0);
  r.metric("trace.overhead_frac",
           untraced_p50 > 0.0 ? tick_p50 / untraced_p50 - 1.0 : 0.0);
  r.facts["trace_spans"] = static_cast<double>(trace.size());
  return r;
}

}  // namespace edgebench
