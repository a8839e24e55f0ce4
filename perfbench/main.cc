// popdb benchmark driver.
//
//   popdb_perfbench --workload tpch_exec|dmv_adhoc|mixed_wire --seed N
//                   --seconds S --trace 0|1 [--data-seed D]
//                   [--trace-out FILE]
//
// Prints a human-readable report and, as the last line of stdout, one JSON
// object with the keys correct, attempted, failed and metrics: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. See README.md.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/span.h"
#include "workloads.h"

#ifndef POPDB_PERFBENCH_BUILD_TYPE
#define POPDB_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace popdb::perfbench {
namespace {

// Scales: tpch_exec where execution is >= 80% of service time and its
// scans outgrow what the host's other tenants leave of the shared cache
// (at 0.01 the same runs spread twice as far; see README.md); dmv_adhoc
// where optimization is >= 50%; mixed_wire heavy enough that thread
// hand-offs and the wire are not most of a read, yet small enough that the
// 10% fold threshold trips on every written table during the timed phase.
// The operation rates set the length of the fixed timed sequence: about
// 0.6-0.85 * --seconds on a 4-vCPU VM, and at least 100 samples per
// tpch_exec template at --seconds 36.
constexpr WorkloadSpec kWorkloads[] = {
    {"tpch_exec", 0.02, 7, 200, 64.0},
    {"dmv_adhoc", 0.25, 25, 200, 190.0},
    {"mixed_wire", 0.006, 11, 600, 400.0},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: popdb_perfbench --workload "
               "tpch_exec|dmv_adhoc|mixed_wire --seed N --seconds S "
               "--trace 0|1 [--data-seed D] [--trace-out FILE]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o, const char** why) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *why = "missing value after a flag";
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--data-seed") {
      o->data_seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--trace-out") {
      o->trace_out = value;
    } else {
      *why = "unknown flag";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *why = "malformed number";
      return false;
    }
  }
  if (o->seconds <= 0 || o->seconds > 120) {
    *why = "--seconds must be in (0, 120]";
    return false;
  }
  return true;
}

/// Confines the process, before it starts any thread, to as many CPUs as
/// one query can use under the default ServiceConfig (intra_query_dop; one
/// client runs one query at a time), the highest-numbered ones it may run
/// on. Returns how many it got. Spread over all CPUs, every hand-off of a
/// request between the client, a connection thread and a service worker
/// wakes another vCPU, and on a VM whose host runs other tenants that
/// wake-up waits until the host runs the vCPU again. On a 4-vCPU VM,
/// unpinned runs of one build read mixed_wire read_p90_ms from 2.7 to
/// 5.4 ms and ops_per_s from 390 to 640, tracking the host's CPU steal;
/// pinned, 2.3-2.6 ms and 680-750. A default that lets a query use more
/// CPUs gets them here too.
int PinToQueryCpus() {
  const int want = std::max(1, ServiceConfig{}.intra_query_dop);
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int got = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && got < want; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++got;
    }
  }
  if (got == 0 || sched_setaffinity(0, sizeof(pinned), &pinned) != 0) return 0;
  return got;
}

}  // namespace

int Main(int argc, char** argv) {
  Options o;
  const char* why = "";
  if (!ParseArgs(argc, argv, &o, &why)) return Usage(why);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (o.workload == w.name) spec = &w;
  }
  if (spec == nullptr) return Usage("unknown workload");

  const int cpus = PinToQueryCpus();
  std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d "
              "build_type=%s nproc=%ld pinned_cpus=%d\n",
              spec->name, static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, POPDB_PERFBENCH_BUILD_TYPE,
              sysconf(_SC_NPROCESSORS_ONLN), cpus);
  if (cpus == 0) std::printf("WARNING: could not pin the process to CPUs\n");
  if (o.trace) {
    // The engine's own spans land in the same dump as the benchmark's.
    SpanTracer::Global().Enable();
    PrintLayerTable();
  }

  Report report;
  if (o.workload == "tpch_exec") {
    RunTpchExec(o, *spec, &report);
  } else if (o.workload == "dmv_adhoc") {
    RunDmvAdhoc(o, *spec, &report);
  } else {
    RunMixedWire(o, *spec, &report);
  }

  if (o.trace) {
    SpanTracer::Global().Disable();
    if (!o.trace_out.empty()) {
      std::ofstream out(o.trace_out);
      out << SpanTracer::Global().ExportChromeTrace();
      std::printf("chrome trace: %s (%lld events)\n", o.trace_out.c_str(),
                  static_cast<long long>(SpanTracer::Global().event_count()));
    }
  }
  for (const Report::Metric& m : report.metrics) {
    std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (report.attempted < 1) report.Fail("no operation was attempted");
  std::printf("attempted %lld, failed %lld, correct %s\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              report.correct ? "true" : "false");
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace popdb::perfbench

int main(int argc, char** argv) { return popdb::perfbench::Main(argc, argv); }
