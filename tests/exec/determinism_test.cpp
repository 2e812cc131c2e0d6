// The sweep engine's headline guarantee, asserted end to end for each
// of the six grid runners: a grid at --jobs 2 writes the same artifacts
// as at --jobs 1 (one test per runner), and a second --jobs 2 run writes
// them again (RerunIsBitIdenticalToItself, over every runner; it
// catches nondeterminism that is not about scheduling at all, such as
// uninitialized state leaking into output). Compared are every file
// under the output directory — summary, metrics.json, trace.json,
// flows.csv, rollout config stores — the in-memory cell summaries
// (artifact line aside), logs, verdicts, stems and the file count.
//
// One table (runners()) holds each experiment's quick grid and what it
// leaves out of the comparison, and why.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/dataplane_chaos.hpp"
#include "experiments/rollout_chaos.hpp"
#include "experiments/sweeps.hpp"
#include "mgmt/json.hpp"

namespace qv::experiments {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing artifact: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The cell summary embeds the artifact stem (which contains the output
// directory); drop that one line so summaries from two temp dirs can be
// compared byte-for-byte on everything that matters.
std::string without_artifact_line(const std::string& summary) {
  std::string out;
  std::size_t pos = 0;
  while (pos < summary.size()) {
    const std::size_t eol = std::min(summary.find('\n', pos), summary.size());
    const std::string line = summary.substr(pos, eol - pos);
    if (line.find("artifacts:") == std::string::npos) {
      out += line;
      out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

/// An artifact's comparable form — its bytes or a projection of them —
/// or nullopt when the experiment leaves the file out.
using Projection = std::function<std::optional<std::string>(
    const std::string& name, std::string bytes)>;

std::optional<std::string> whole_file(const std::string&, std::string bytes) {
  return bytes;
}

// fig2: the hypervisor deploy target's runtime `recompile` spans record
// their wall-clock cost as `dur` (see experiments/sweeps.hpp).
std::optional<std::string> fig2_without_traces(const std::string& name,
                                               std::string bytes) {
  if (name.ends_with("_trace.json")) return std::nullopt;
  return bytes;
}

// rollout_chaos: the control plane's full re-synthesis latency gauges
// are wall clock.
std::optional<std::string> rollout_without_latency(const std::string& name,
                                                   std::string bytes) {
  if (!name.ends_with("_metrics.json")) return bytes;
  for (const char* stat : {"mean", "p50", "p99"}) {
    const std::string key =
        std::string("\"control.resynthesis.full.") + stat + "_ns\":";
    const std::size_t at = bytes.find(key);
    if (at == std::string::npos) return "missing " + key;
    const std::size_t value = at + key.size();
    bytes.erase(value, bytes.find_first_of(",}", value) - value);
  }
  return bytes;
}

// dataplane_chaos: shards are real threads, so of all its artifacts
// only the summary's verdicts are fixed, plus the row of a stall, crash
// or poison cell bar `watchdog_detects`, which also counts a worker
// descheduled past the heartbeat deadline (see
// experiments/dataplane_chaos.hpp).
std::optional<std::string> dpchaos_verdicts(const std::string& name,
                                            std::string bytes) {
  if (!name.ends_with("_summary.json")) return std::nullopt;
  const mgmt::JsonParseResult doc = mgmt::parse_json(bytes);
  if (!doc.ok()) return "unparsable summary: " + doc.error;
  std::string out;
  for (mgmt::JsonValue row : doc.value->find("grid")->as_array()) {
    const std::string kind = row.find("kind")->as_string();
    if (kind == "stall" || kind == "crash" || kind == "poison") {
      row.as_object().erase("watchdog_detects");
      out += row.dump();
    } else {
      out += kind + " s" + std::to_string(row.find("seed")->as_int());
      for (const char* verdict :
           {"balanced", "faultfree_identical", "replay_identical",
            "loss_bounded", "recovery_bounded", "activity_seen", "ok"}) {
        out += std::string(" ") + verdict + "=" +
               (row.find(verdict)->as_bool() ? "1" : "0");
      }
    }
    out += '\n';
  }
  return out;
}

struct Runner {
  /// Its jobs test is SweepDeterminism.<name>ArtifactsByteIdenticalAcrossJobs.
  const char* name;
  std::function<std::vector<SweepCell>(const fs::path& out, std::size_t jobs)>
      run;
  std::size_t cells;
  std::ptrdiff_t files;  ///< entries in the output directory after a run
  std::vector<std::pair<std::size_t, std::string>> stems;  ///< grid order
  bool must_pass = false;  ///< every cell's verdict holds
  bool cell_text = true;   ///< summary blocks and logs are deterministic
  Projection project = whole_file;
};

Fig2SweepConfig quick_fig2(const fs::path& out, std::size_t jobs) {
  Fig2SweepConfig sweep;
  // Shortened run, same structure — keeps the 2x2 grid under a second
  // per invocation while still crossing the t1 policy shift.
  sweep.base.warmup = milliseconds(2);
  sweep.base.t1 = milliseconds(10);
  sweep.base.end = milliseconds(20);
  sweep.schemes = {Fig2Scheme::kFifo, Fig2Scheme::kQvisorAdapt};
  sweep.seeds = {1, 7};
  sweep.out_dir = out.string();
  sweep.jobs = jobs;
  return sweep;
}

Fig4SweepConfig quick_fig4(const fs::path& out, std::size_t jobs) {
  // The short horizon of the end-to-end benchmark's smoke mode. The
  // thread sanitizer runs cells ~20x slower, so it takes a third of
  // that horizon: the same code paths in about 2 s.
#if defined(__SANITIZE_THREAD__)
  constexpr TimeNs kShrink = 3;
#else
  constexpr TimeNs kShrink = 1;
#endif
  Fig4SweepConfig sweep;
  sweep.base = fig4_scaled_config();
  sweep.base.warmup = milliseconds(5) / kShrink;
  sweep.base.measure_window = milliseconds(10) / kShrink;
  sweep.base.drain = milliseconds(15) / kShrink;
  sweep.schemes = {Fig4Scheme::kFifoBoth, Fig4Scheme::kQvisorShare,
                   Fig4Scheme::kQvisorPfabricOverEdf};
  sweep.loads = {0.5};
  sweep.out_dir = out.string();
  sweep.jobs = jobs;
  // A 4,096-event ring still wraps and spans several writer chunks, at
  // a fraction of the default ring's cost under the thread sanitizer.
  sweep.obs.trace_capacity = 1u << 12;
  return sweep;
}

ChaosSweepConfig quick_chaos(const fs::path& out, std::size_t jobs) {
  ChaosSweepConfig sweep;
  // Mirrors the shortened config in tests/integration/chaos_test.cpp.
  sweep.base.traffic_stop = milliseconds(40);
  sweep.base.end = milliseconds(48);
  sweep.base.bronze_off = milliseconds(12);
  sweep.base.bronze_on = milliseconds(28);
  sweep.base.fault_cfg.start = milliseconds(4);
  sweep.base.fault_cfg.end = milliseconds(32);
  sweep.base.install_fault_from = milliseconds(14);
  sweep.base.install_fault_to = milliseconds(24);
  sweep.base.reboot_at = milliseconds(34);
  sweep.seeds = {1, 7, 42};
  sweep.out_dir = out.string();
  sweep.jobs = jobs;
  return sweep;
}

OverloadSweepConfig quick_overload(const fs::path& out, std::size_t jobs) {
  OverloadSweepConfig sweep;
  // A short attack (5-12 ms) that the controller jails at 6 ms. The
  // attacker violated while jailed, so its term restarts at 16 ms, a
  // clean window after its last violation, and it is released at 20 ms:
  // the adaptation loop's release rule inside the sweep.
  sweep.base.attack_stop = milliseconds(12);
  sweep.base.traffic_stop = milliseconds(24);
  sweep.base.end = milliseconds(28);
  sweep.base.quarantine_clean_window = milliseconds(4);
  // Two identifiable attackers; the id churner sends 4x the packets
  // and would dominate the thread-sanitizer run.
  sweep.modes = {trafficgen::AdversaryMode::kFlooder,
                 trafficgen::AdversaryMode::kBurstHerd};
  sweep.seeds = {1};
  sweep.out_dir = out.string();
  sweep.jobs = jobs;
  return sweep;
}

RolloutChaosSweepConfig quick_rollout(const fs::path& out, std::size_t jobs) {
  RolloutChaosSweepConfig sweep;
  sweep.base.switches = 24;
  sweep.seeds = {1, 7};
  sweep.out_dir = out.string();
  sweep.jobs = jobs;
  return sweep;
}

DataplaneChaosSweepConfig quick_dpchaos(const fs::path& out,
                                        std::size_t jobs) {
  DataplaneChaosSweepConfig sweep;
  sweep.base.base.packets_per_port = 2000;
  sweep.seeds = {7};
  sweep.out_dir = out.string();
  sweep.jobs = jobs;
  return sweep;
}

const std::vector<Runner>& runners() {
  static const std::vector<Runner> table = {
      {.name = "Fig2",
       .run = [](const fs::path& d,
                 std::size_t j) { return run_fig2_sweep(quick_fig2(d, j)); },
       .cells = 4,
       // 4 cells x {flows.csv, metrics.json, trace.json} + summary.
       .files = 13,
       .stems = {{0, "fig2_fifo_s1"}, {3, "fig2_qvisor-adapt_s7"}},
       .project = fig2_without_traces},
      // Without trace_sim fig4 has no wall-clock trace producer: this
      // pins the streaming trace writer and the tenant-rank sampler's
      // histograms end to end.
      {.name = "Fig4",
       .run = [](const fs::path& d,
                 std::size_t j) { return run_fig4_sweep(quick_fig4(d, j)); },
       .cells = 3,
       .files = 10,
       .stems = {{2, "fig4_qvisor-pfabric"}}},
      // chaos and overload deploy through a FleetTarget, which emits no
      // wall-clock span, so their traces are compared too.
      {.name = "Chaos",
       .run = [](const fs::path& d,
                 std::size_t j) { return run_chaos_sweep(quick_chaos(d, j)); },
       .cells = 3,
       .files = 7,
       .stems = {{0, "chaos_s1"}},
       .must_pass = true},
      {.name = "Overload",
       .run =
           [](const fs::path& d, std::size_t j) {
             return run_overload_sweep(quick_overload(d, j));
           },
       .cells = 2,
       .files = 5,
       .stems = {{0, "overload_flooder"}}},
      // 5 kinds x 2 seeds x {metrics.json, trace.json, store/} + summary.
      {.name = "RolloutChaos",
       .run =
           [](const fs::path& d, std::size_t j) {
             return run_rollout_chaos_sweep(quick_rollout(d, j));
           },
       .cells = 10,
       .files = 31,
       .stems = {{0, "rollout_clean_s1"}, {9, "rollout_random_s7"}},
       .must_pass = true,
       .project = rollout_without_latency},
      // Cell blocks print the wall-clock slowest restore, and desync and
      // random cells lose whatever was in flight: text is not compared.
      {.name = "DataplaneChaos",
       .run =
           [](const fs::path& d, std::size_t j) {
             return run_dataplane_chaos_sweep(quick_dpchaos(d, j));
           },
       .cells = 5,
       .files = 11,
       .stems = {{0, "dpchaos_stall"}, {4, "dpchaos_random"}},
       .must_pass = true,
       .cell_text = false,
       .project = dpchaos_verdicts},
  };
  return table;
}

/// Run b must match run a on everything `runner` compares.
void expect_same(const Runner& runner, const fs::path& a_dir,
                 const std::vector<SweepCell>& a, const fs::path& b_dir,
                 const std::vector<SweepCell>& b) {
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (runner.cell_text) {
      EXPECT_EQ(without_artifact_line(b[i].summary),
                without_artifact_line(a[i].summary))
          << "cell " << i;
      EXPECT_EQ(b[i].log, a[i].log) << "cell " << i;
    }
    EXPECT_EQ(b[i].ok, a[i].ok) << "cell " << i;
    EXPECT_EQ(fs::path(b[i].stem).filename(), fs::path(a[i].stem).filename());
  }
  std::size_t compared = 0;
  for (const auto& entry : fs::recursive_directory_iterator(a_dir)) {
    if (!entry.is_regular_file()) continue;
    const fs::path rel = fs::relative(entry.path(), a_dir);
    const std::string name = rel.filename().string();
    const std::optional<std::string> want =
        runner.project(name, slurp(entry.path()));
    if (!want) continue;
    EXPECT_EQ(runner.project(name, slurp(b_dir / rel)), want)
        << "artifact differs: " << rel;
    ++compared;
  }
  EXPECT_GT(compared, 0u) << "sweep produced no artifacts to compare";
}

/// One run of `runner`'s quick grid into `dir`, with the checks every
/// run must pass on its own: cell and file counts, stems, verdicts.
void run_checked(const Runner& runner, const fs::path& dir, std::size_t jobs,
                 std::vector<SweepCell>* cells) {
  *cells = runner.run(dir, jobs);
  ASSERT_EQ(cells->size(), runner.cells);
  EXPECT_EQ(
      std::distance(fs::directory_iterator(dir), fs::directory_iterator{}),
      runner.files);
  for (const auto& [i, stem] : runner.stems) {
    EXPECT_EQ((*cells)[i].stem, (dir / stem).string());
  }
  if (runner.must_pass) {
    for (const SweepCell& cell : *cells) {
      EXPECT_TRUE(cell.ok) << cell.summary;
    }
  }
}

// Jobs 1 against jobs 2.
void jobs_identity(const Runner& runner) {
  const std::string tag = std::string(runner.name) + "_";
  const fs::path j1_dir = fresh_dir(tag + "j1");
  const fs::path j2_dir = fresh_dir(tag + "j2");
  std::vector<SweepCell> j1, j2;
  ASSERT_NO_FATAL_FAILURE(run_checked(runner, j1_dir, 1, &j1));
  ASSERT_NO_FATAL_FAILURE(run_checked(runner, j2_dir, 2, &j2));
  expect_same(runner, j1_dir, j1, j2_dir, j2);
}

// The same jobs count twice for every runner in the table: catches
// nondeterminism that is not about scheduling at all (e.g.
// uninitialized state leaking into output).
void rerun_identity() {
  for (const Runner& runner : runners()) {
    SCOPED_TRACE(runner.name);
    const std::string tag = std::string(runner.name) + "_rerun_";
    const fs::path a_dir = fresh_dir(tag + "a");
    const fs::path b_dir = fresh_dir(tag + "b");
    std::vector<SweepCell> a, b;
    ASSERT_NO_FATAL_FAILURE(run_checked(runner, a_dir, 2, &a));
    ASSERT_NO_FATAL_FAILURE(run_checked(runner, b_dir, 2, &b));
    expect_same(runner, a_dir, a, b_dir, b);
  }
}

// gtest requires one fixture class per suite, so every SweepDeterminism
// test, table-driven or not, is registered through this one.
class SweepDeterminism : public ::testing::Test {
 public:
  explicit SweepDeterminism(std::function<void()> body)
      : body_(std::move(body)) {}
  void TestBody() override { body_(); }

 private:
  std::function<void()> body_;
};

void register_test(const std::string& name, std::function<void()> body) {
  ::testing::RegisterTest("SweepDeterminism", name.c_str(), nullptr, nullptr,
                          __FILE__, __LINE__,
                          [body]() -> SweepDeterminism* {
                            return new SweepDeterminism(body);
                          });
}

[[maybe_unused]] const bool kRegistered = [] {
  for (const Runner& runner : runners()) {
    register_test(std::string(runner.name) + "ArtifactsByteIdenticalAcrossJobs",
                  [&runner] { jobs_identity(runner); });
  }
  register_test("RerunIsBitIdenticalToItself", rerun_identity);
  return true;
}();

}  // namespace
}  // namespace qv::experiments
