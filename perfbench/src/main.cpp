// ruru_e2e — wall-clock, first-inject-to-last-sink benchmark of the whole
// Ruru pipeline with per-layer attribution.
//
//   ruru_e2e --workload <handshake_mix|bulk_skip|synflood> --seed <n>
//            --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//            [--commit <id>] [--source-digest <hex>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "stages.hpp"
#include "stats.hpp"
#include "util/logging.hpp"

namespace ruru::e2e {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string out_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ruru_e2e: " << why
            << "\nusage: ruru_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--smoke] [--out-dir <dir>] [--commit <id>] [--source-digest <hex>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value);
      else if (key == "--out-dir") a.out_dir = value;
      else if (key == "--commit") a.commit = value;
      else if (key == "--source-digest") a.source_digest = value;
      else usage("unknown argument " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown workload '" + a.workload + "'");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

template <typename F>
std::vector<double> collect(const std::vector<RepResult>& reps, F&& f) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const RepResult& r : reps) out.push_back(f(r));
  return out;
}

/// One per-replay series, pooled over replays.
std::vector<double> pooled(const std::vector<RepResult>& reps, std::vector<double> RepResult::*field) {
  std::vector<double> out;
  for (const RepResult& r : reps) out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  return out;
}

double capacity_fps(const RepResult& r) { return static_cast<double>(r.frames) / r.wall_s; }

/// Runs replays of one kind until `budget_s` is spent (at least `min_reps`).
template <typename Run>
void run_phase(std::vector<RepResult>& all, std::vector<RepResult>& phase, const char* label,
               double budget_s, int min_reps, Run&& run) {
  const std::int64_t start = now_ns();
  while (static_cast<int>(phase.size()) < min_reps ||
         static_cast<double>(now_ns() - start) * 1e-9 < budget_s) {
    RepResult r = run();
    std::printf("%-12s rep %2zu: %9.0f frames/s  setup %.4f s  rss %.1f MiB  drain %.2f ms  "
                "samples %llu  alerts %llu  lost %llu  retried %llu  digest %016llx%s%s\n",
                label, phase.size() + 1, capacity_fps(r), r.setup_s, r.rss_mib, r.drain_s * 1e3,
                static_cast<unsigned long long>(r.sink_samples),
                static_cast<unsigned long long>(r.alerts), static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.retried),
                static_cast<unsigned long long>(r.digest), r.failure.empty() ? "" : "  FAILED: ",
                r.failure.c_str());
    phase.push_back(r);
    all.push_back(std::move(r));
  }
}

void write_spans(const Args& args, const std::vector<RepResult>& reps) {
  if (args.out_dir.empty()) return;
  // One file per workload, overwritten by the next traced run of it.
  const std::string path = args.out_dir + "/spans-" + args.workload + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "ruru_e2e: cannot write " << path << "\n";
    return;
  }
  static constexpr const char* kKinds[] = {"inject", "retry_wait", "finish", "sink"};
  out << "replay,phase,kind,start_ns,end_ns\n";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (const Span& s : reps[i].spans) {
      out << i << ',' << (reps[i].open_loop ? "open_loop" : "saturated") << ','
          << kKinds[static_cast<int>(s.kind)] << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  std::printf("spans written to %s\n", path.c_str());
}

int run(const Args& args) {
  Logger::instance().set_level(LogLevel::kWarn);
  // Fixed mmap threshold: large blocks always go back to the kernel on
  // free, so each replay's peak-RSS growth starts from the same floor.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  const Workload& workload = *find_workload(args.workload);
  const Trace trace = generate_trace(workload, args.seed, args.smoke);
  std::printf("workload %s seed %llu: %zu frames, %.1f MiB, %llu flows, %llu handshakes, "
              "%llu flood SYNs, generated in %.2f s (not timed)\n",
              std::string(workload.name).c_str(), static_cast<unsigned long long>(args.seed),
              trace.frames.size(), static_cast<double>(trace.bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(trace.flows),
              static_cast<unsigned long long>(trace.handshakes),
              static_cast<unsigned long long>(trace.flood_syns), trace.generate_s);
  if (trace.frames.empty() || trace.handshakes == 0) throw std::runtime_error("empty trace");

  const CpuTimes cpu0 = CpuTimes::read();
  const double s = args.seconds;
  const int min_reps = args.smoke ? 1 : 2;
  std::vector<RepResult> all;
  std::vector<Metric> metrics;
  bool stage_failed = false;  // the stage-isolated replay counts as one more attempt

  if (args.trace == 0) {
    std::vector<RepResult> sat, ol;
    // Capacity spreads more between runs than latency does, so the
    // saturated phase gets the larger share of the run.
    run_phase(all, sat, "saturated", 0.6 * s, args.smoke ? 1 : 3,
              [&] { return run_saturated(trace, workload, false); });
    run_phase(all, ol, "open-loop", 0.4 * s, min_reps,
              [&] { return run_open_loop(trace, workload, false); });
    std::uint64_t offered = 0, lost = 0;
    for (const RepResult& r : ol) {
      offered += r.frames;
      lost += r.lost;
    }
    metrics = {
        {"capacity_fps", median(collect(sat, capacity_fps)), "frames/s"},
        {"latency_p50_us",
         median(collect(ol, [](const RepResult& r) { return quantile(r.latency_us, 0.5); })),
         "us"},
        {"delivered_frac", 1.0 - static_cast<double>(lost) / static_cast<double>(offered), "ratio"},
        {"sample_yield_frac", median(collect(sat, [&](const RepResult& r) {
           return static_cast<double>(r.sink_samples) / static_cast<double>(trace.handshakes);
         })),
         "ratio"},
        {"setup_s", median(collect(all, [](const RepResult& r) { return r.setup_s; })), "s"},
        {"rss_mb", median(collect(all, [](const RepResult& r) { return r.rss_mib; })), "MiB"},
    };
  } else {
    std::vector<RepResult> plain, sat, ol;
    run_phase(all, plain, "untraced", 0.2 * s, min_reps,
              [&] { return run_saturated(trace, workload, false); });
    run_phase(all, sat, "traced", 0.25 * s, min_reps,
              [&] { return run_saturated(trace, workload, true); });
    run_phase(all, ol, "traced-open", 0.25 * s, 1,
              [&] { return run_open_loop(trace, workload, true); });
    const StageResult stages = run_stages(trace, 0.3 * s);
    std::printf("stage-isolated replay: %llu samples, %llu SYNs%s%s\n",
                static_cast<unsigned long long>(stages.samples),
                static_cast<unsigned long long>(stages.syns),
                stages.failure.empty() ? "" : "  FAILED: ", stages.failure.c_str());
    const auto stage = [&stages](const std::string& name) {
      for (const auto& [n, v] : stages.ns_per_item) {
        if (n == name) return v;
      }
      return 0.0;
    };
    const auto med = [&sat](auto f) { return median(collect(sat, f)); };
    const double injector_busy = med([](const RepResult& r) { return r.inject_s / r.wall_s; });
    const double worker_polls_busy = med([](const RepResult& r) { return r.worker_busy; });
    // Polls are not time: an empty poll costs far less than a full one,
    // so the bottleneck ranking uses the workers' isolated self time
    // spread over both lcores and the traced wall time instead.
    const double flow_ns = stage("flow.self_ns_per_frame");
    const double worker_busy = med([flow_ns](const RepResult& r) {
      return flow_ns * 1e-9 * static_cast<double>(r.frames) /
             (static_cast<double>(bench_config(true).num_queues) * r.wall_s);
    });
    const double enricher_busy = med([](const RepResult& r) { return r.enricher_busy; });
    const double traced_cap = median(collect(sat, capacity_fps));
    const double plain_cap = median(collect(plain, capacity_fps));
    const std::vector<double> alerts =
        collect(all, [](const RepResult& r) { return static_cast<double>(r.alerts); });
    const std::vector<double> latency = pooled(ol, &RepResult::latency_us);
    metrics = {
        {"driver.inject_ns_per_frame",
         med([](const RepResult& r) { return r.inject_s * 1e9 / static_cast<double>(r.frames); }),
         "ns/frame"},
        {"driver.inject_self_ns_per_frame", stage("driver.inject_self_ns_per_frame"), "ns/frame"},
        {"driver.backpressure_frac",
         med([](const RepResult& r) { return static_cast<double>(r.retried) / static_cast<double>(r.frames); }),
         "ratio"},
        {"driver.ring_occupancy_p99",
         quantile(pooled(ol, &RepResult::ring_occupancy), 0.99),
         "frames"},
        {"driver.injector_busy_frac", injector_busy, "ratio"},
        {"flow.busy_frac", worker_polls_busy, "ratio"},
        {"flow.busy_time_frac", worker_busy, "ratio"},
        {"flow.self_ns_per_frame", stage("flow.self_ns_per_frame"), "ns/frame"},
        {"flow.skip_frac", med([](const RepResult& r) { return r.skip_frac; }), "ratio"},
        {"flow.table_drop_frac", med([](const RepResult& r) { return r.table_drop_frac; }), "ratio"},
        {"msg.pending_p99",
         quantile(pooled(ol, &RepResult::bus_pending), 0.99),
         "messages"},
        {"msg.batch_fill", median(collect(ol, [](const RepResult& r) { return r.batch_fill; })),
         "samples/flush"},
        {"msg.drop_frac", med([](const RepResult& r) { return r.bus_drop_frac; }), "ratio"},
        {"msg.codec_self_ns_per_sample", stage("msg.codec_self_ns_per_sample"), "ns/sample"},
        {"analytics.enrich_self_ns_per_sample", stage("analytics.enrich_self_ns_per_sample"), "ns/sample"},
        {"analytics.enricher_busy_frac", enricher_busy, "ratio"},
        {"analytics.cache_hit_frac", med([](const RepResult& r) { return r.cache_hit_frac; }), "ratio"},
        {"analytics.aggregate_self_ns_per_sample", stage("analytics.aggregate_self_ns_per_sample"), "ns/sample"},
        {"tsdb.append_self_ns_per_point", stage("tsdb.append_self_ns_per_point"), "ns/point"},
        {"viz.arc_self_ns_per_sample", stage("viz.arc_self_ns_per_sample"), "ns/sample"},
        {"anomaly.syn_self_ns_per_syn", stage("anomaly.syn_self_ns_per_syn"), "ns/syn"},
        {"anomaly.sample_self_ns_per_sample", stage("anomaly.sample_self_ns_per_sample"), "ns/sample"},
        {"anomaly.alerts", median(alerts), "count"},
        {"anomaly.alerts_range", quantile(alerts, 1.0) - quantile(alerts, 0.0), "count"},
        {"core.drain_ms", med([](const RepResult& r) { return r.drain_s * 1e3; }), "ms"},
        {"bench.gen_late_p99_us",
         quantile(pooled(ol, &RepResult::late_us), 0.99),
         "us"},
        {"bench.latency_p99_us", quantile(latency, 0.99), "us"},
        {"bench.latency_samples", static_cast<double>(latency.size()), "count"},
        {"bench.trace_overhead_frac", 1.0 - traced_cap / plain_cap, "ratio"},
    };

    // Injector-thread accounting over the traced saturated replays: the
    // parts sum to the wall time by construction ("other" is the loop).
    const double wall = med([](const RepResult& r) { return r.wall_s; });
    const double inject = med([](const RepResult& r) { return r.inject_s; });
    const double wait = med([](const RepResult& r) { return r.retry_wait_s; });
    const double drain = med([](const RepResult& r) { return r.drain_s; });
    std::printf("injector thread (traced, median): wall %.1f ms = inject_burst %.1f + retry wait "
                "%.1f + finish %.1f + loop %.1f ms\n",
                wall * 1e3, inject * 1e3, wait * 1e3, drain * 1e3,
                (wall - inject - wait - drain) * 1e3);
    const char* bottleneck = "injector";
    double top = injector_busy;
    if (worker_busy > top) {
      bottleneck = "worker";
      top = worker_busy;
    }
    if (enricher_busy > top) bottleneck = "enricher";
    std::printf("bottleneck stage: %s (busy fraction: injector %.3f, worker %.3f, enricher %.3f)\n",
                bottleneck, injector_busy, worker_busy, enricher_busy);
    stage_failed = !stages.failure.empty();
    write_spans(args, all);
  }

  const double steal = CpuTimes::steal_frac(cpu0, CpuTimes::read());
  if (args.trace == 1) metrics.push_back({"bench.steal_frac", steal, "ratio"});

  // Output checks across replays: every lossless replay's sample digest
  // must equal the first one's.
  const std::uint64_t attempted = all.size() + (args.trace == 1 ? 1 : 0);
  std::uint64_t failed = stage_failed ? 1 : 0;
  std::uint64_t reference = 0;
  bool have_reference = false;
  std::vector<double> alert_counts;
  for (RepResult& r : all) {
    alert_counts.push_back(static_cast<double>(r.alerts));
    if (r.lost == 0) {
      if (!have_reference) {
        reference = r.digest;
        have_reference = true;
      } else if (r.failure.empty() && r.digest != reference) {
        r.failure = "sample digest differs from the first replay";
      }
    }
    if (!r.failure.empty()) ++failed;
  }
  std::printf("anomaly.alerts per replay:");
  for (const double a : alert_counts) std::printf(" %.0f", a);
  std::printf("  (range %.0f, not gated)\n", quantile(alert_counts, 1.0) - quantile(alert_counts, 0.0));
  std::printf("sample digest %016llx\n", static_cast<unsigned long long>(reference));

  std::printf(
      "{\"provenance\": {\"commit\": %s, \"source_digest\": %s, \"cpu_model\": %s, \"nproc\": %u, "
      "\"build_type\": %s, \"compiler\": %s, \"threads\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"smoke\": %s, \"frames\": %zu, \"steal_frac\": %s}}\n",
      json_string(args.commit).c_str(), json_string(args.source_digest).c_str(),
      json_string(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      json_string(RURU_E2E_BUILD_TYPE).c_str(), json_string(RURU_E2E_COMPILER).c_str(),
      json_string("1 injector (main thread) + 2 worker lcores + 1 enrichment thread, unpinned").c_str(),
      json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.smoke ? "true" : "false", trace.frames.size(),
      json_number(steal).c_str());
  for (const Metric& m : metrics) {
    std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace ruru::e2e

int main(int argc, char** argv) {
  const ruru::e2e::Args args = ruru::e2e::parse(argc, argv);
  try {
    return ruru::e2e::run(args);
  } catch (const std::exception& e) {
    std::cerr << "ruru_e2e: " << e.what() << "\n";
    return 1;
  }
}
