// READS-Edge benchmark program.
//
//   edgebench --workload <edge_sync|cluster_uds|offline_sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--model-cache <dir>] [--out-dir <dir>] [--git-sha <sha>]
//
// Prints every metric by name with its unit, a {"meta": ...} line, and as
// the last line {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero when any decision diverges from the single-process
// QuantizedModel oracle or the run is otherwise invalid. run.py builds this
// binary and forwards the arguments; README.md documents every metric.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "hls/qkernels.hpp"

namespace {

using namespace edgebench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The one list of metric names; BENCHMARK.json mirrors it.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"tick_p50_ms", "ms"},
    {"tick_p99_ms", "ms"},
    {"deadline_met_frac", "1"},
    {"frames_per_s", "frames/s"},
};

// A layer the workload does not call reports 0 (see README.md).
constexpr MetricDef kPerLayer[] = {
    {"loadgen.lag_ms_p99", "ms"},
    {"loadgen.ticks", "count"},
    {"net.assemble_us_p50", "us"},
    {"net.packets_rejected", "count"},
    {"serve.submit_us_p50", "us"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.batch_frames_mean", "frames"},
    {"serve.handoff_us_p50", "us"},
    {"serve.handoff_us_p99", "us"},
    {"serve.shed_frac", "1"},
    {"serve.replica_busy_frac", "1"},
    {"hls.backend_ms_per_frame", "ms"},
    {"hls.backend_call_ms_p99", "ms"},
    {"hls.forward_ms_per_frame.w16", "ms"},
    {"hls.forward_ms_per_frame.w18", "ms"},
    {"hls.macs_per_frame", "count"},
    {"hls.gmacs_per_s.w16", "GMAC/s"},
    {"hls.gmacs_per_s.w18", "GMAC/s"},
    {"hls.narrow_layers.w16", "layers"},
    {"hls.narrow_layers.w18", "layers"},
    {"core.standardize_us_p50", "us"},
    {"core.decide_us_p50", "us"},
    {"cluster.client_submit_us_p50", "us"},
    {"cluster.decode_us_p50", "us"},
    {"cluster.backend_ms_per_frame", "ms"},
    {"cluster.replica_e2e_ms_p50", "ms"},
    {"cluster.replica_e2e_ms_p99", "ms"},
    {"cluster.hop_ms_p50", "ms"},
    {"cluster.router_rtt_est_ms", "ms"},
    {"cluster.bytes_per_tick", "bytes"},
    {"cluster.outbuf_high_water_bytes", "bytes"},
    {"cluster.router_sheds", "count"},
    {"cluster.redispatched_jobs", "count"},
    {"cluster.outbuf_overflows", "count"},
    {"cluster.undeliverable_results", "count"},
    {"setup.model_load_s", "s"},
    {"setup.compile_s", "s"},
    {"setup.spawn_s", "s"},
    {"trace.overhead_frac", "1"},
    {"trace.stages_reconciled_frac", "1"},
    {"max_streams", "streams"},
};

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string meta_json(const Options& o, const std::string& git_sha,
                      const Result& r) {
  std::ostringstream m;
  m << "{\"workload\": " << quote(o.workload) << ", \"seed\": " << o.seed
    << ", \"seconds\": " << util::json_double(o.seconds)
    << ", \"trace\": " << (o.trace ? 1 : 0)
    << ", \"cpu_model\": " << quote(cpu_model())
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"kernel_variant\": " << quote(hls::kernels::variant())
    << ", \"narrow_variant\": " << quote(hls::kernels::narrow_variant())
    << ", \"narrow_dp_variant\": " << quote(hls::kernels::narrow_dp_variant())
    << ", \"compiler\": " << quote(EDGEBENCH_COMPILER)
    << ", \"build_type\": " << quote(EDGEBENCH_BUILD_TYPE)
    << ", \"git_sha\": " << quote(git_sha) << ", \"counts\": {";
  bool first = true;
  for (const auto& [k, v] : r.facts) {
    m << (first ? "" : ", ") << quote(k) << ": " << util::json_double(v);
    first = false;
  }
  m << "}, \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    m << (i ? ", " : "") << quote(r.problems[i]);
  }
  m << "]}";
  return m.str();
}

int usage(const std::string& why) {
  std::cerr << "edgebench: " << why
            << "\nusage: edgebench --workload <edge_sync|cluster_uds|"
               "offline_sweep> --seed <n> --seconds <s> "
               "--trace <0|1> [--model-cache <dir>] [--out-dir <dir>] "
               "[--git-sha <sha>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  const auto get = [&](const std::string& k, const std::string& dflt) {
    const auto it = args.find(k);
    return it == args.end() ? dflt : it->second;
  };

  Options o;
  o.model_cache = get("model-cache", ".bench_build/models");
  o.out_dir = get("out-dir", ".bench_out");
  if (get("role", "") == "replica") {
    return replica_main(get("listen", ""), o.model_cache);
  }
  try {
    o.workload = get("workload", "");
    o.seed = std::stoull(get("seed", "1"));
    o.seconds = std::stod(get("seconds", "10"));
    o.trace = get("trace", "0") == "1";
  } catch (const std::exception&) {
    return usage("malformed --seed/--seconds");
  }
  if (o.seconds < 1.0 || o.seconds > 60.0) {
    return usage("--seconds must be in [1, 60]");
  }
  std::filesystem::create_directories(o.out_dir);

  Result r;
  try {
    if (o.workload == "edge_sync") {
      r = run_edge(o);
    } else if (o.workload == "cluster_uds") {
      r = run_cluster(o, std::filesystem::read_symlink("/proc/self/exe"));
    } else if (o.workload == "offline_sweep") {
      r = run_offline(o);
    } else {
      return usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "edgebench: " << o.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  // Every metric the mode promises must be present (a missing end-to-end
  // metric is a bug; a per-layer metric of a layer the workload does not
  // call is 0).
  std::ostringstream metrics;
  bool first = true;
  const auto emit = [&](const MetricDef& d, bool required) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end() && required) {
      r.problem(std::string("missing metric ") + d.name);
    }
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    std::cout << "  " << d.name << " = " << util::json_double(v) << " "
              << d.unit << "\n";
    metrics << (first ? "" : ", ") << quote(d.name)
            << ": {\"value\": " << util::json_double(v)
            << ", \"unit\": " << quote(d.unit) << "}";
    first = false;
  };
  std::cout << o.workload << " (seed " << o.seed << ", " << o.seconds
            << " s, " << (o.trace ? "traced" : "untraced") << "):\n";
  if (o.trace) {
    for (const auto& d : kPerLayer) emit(d, false);
  } else {
    for (const auto& d : kEndToEnd) emit(d, true);
  }
  for (const auto& p : r.problems) std::cout << "  INVALID: " << p << "\n";

  const std::string meta = meta_json(o, get("git-sha", "unknown"), r);
  std::ostringstream line;
  line << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {" << metrics.str() << "}}";
  std::ofstream(o.out_dir + "/result-" + o.workload + "-seed" +
                std::to_string(o.seed) + (o.trace ? "-traced" : "") +
                ".json")
      << "{\"meta\": " << meta << ", \"result\": " << line.str() << "}\n";
  std::cout << "{\"meta\": " << meta << "}\n" << line.str() << std::endl;
  return r.correct ? 0 : 1;
}
