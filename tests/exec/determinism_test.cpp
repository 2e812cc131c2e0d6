// The sweep engine's headline guarantee, asserted end to end: running
// an experiment grid at --jobs N produces byte-identical artifacts to
// --jobs 1 — flows.csv, metrics.json, the summary JSON, and the
// in-memory cell summaries/logs. fig4 (without trace_sim) and overload
// also keep trace.json identical; fig2 does not, because its runtime
// recompile spans record wall-clock cost (see experiments/sweeps.hpp).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "experiments/sweeps.hpp"

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

// Compare every artifact of two sweep output directories; trace.json
// only when `with_traces`.
void expect_dirs_identical(const fs::path& serial, const fs::path& parallel,
                           bool with_traces = false) {
  std::size_t compared = 0;
  for (const auto& entry : fs::directory_iterator(serial)) {
    const std::string name = entry.path().filename().string();
    if (!with_traces && name.find("_trace.json") != std::string::npos) {
      continue;
    }
    EXPECT_EQ(slurp(entry.path()), slurp(parallel / name))
        << "artifact differs across --jobs: " << name;
    ++compared;
  }
  EXPECT_GT(compared, 0u) << "sweep produced no artifacts to compare";
}

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

TEST(SweepDeterminism, Fig2ArtifactsByteIdenticalAcrossJobs) {
  const fs::path serial_dir = fresh_dir("fig2_j1");
  const fs::path parallel_dir = fresh_dir("fig2_j8");
  const auto serial = run_fig2_sweep(quick_fig2(serial_dir, 1));
  const auto parallel = run_fig2_sweep(quick_fig2(parallel_dir, 8));

  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(without_artifact_line(parallel[i].summary),
              without_artifact_line(serial[i].summary))
        << "cell " << i;
    EXPECT_EQ(parallel[i].log, serial[i].log) << "cell " << i;
    EXPECT_EQ(parallel[i].ok, serial[i].ok) << "cell " << i;
  }
  // Grid order is schemes (outer) x seeds (inner).
  EXPECT_EQ(serial[0].stem, (serial_dir / "fig2_fifo_s1").string());
  EXPECT_EQ(serial[3].stem, (serial_dir / "fig2_qvisor-adapt_s7").string());
  expect_dirs_identical(serial_dir, parallel_dir);
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

// fig4 has no wall-clock trace producer unless trace_sim is set, so its
// trace.json joins the contract: this pins the streaming trace writer
// and the tenant-rank sampler's histograms end to end.
TEST(SweepDeterminism, Fig4ArtifactsByteIdenticalAcrossJobs) {
  const fs::path serial_dir = fresh_dir("fig4_j1");
  const fs::path parallel_dir = fresh_dir("fig4_j2");
  const auto serial = run_fig4_sweep(quick_fig4(serial_dir, 1));
  const auto parallel = run_fig4_sweep(quick_fig4(parallel_dir, 2));

  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(without_artifact_line(parallel[i].summary),
              without_artifact_line(serial[i].summary))
        << "cell " << i;
    EXPECT_EQ(parallel[i].log, serial[i].log) << "cell " << i;
  }
  EXPECT_EQ(serial[2].stem, (serial_dir / "fig4_qvisor-pfabric").string());
  // 3 cells x {flows.csv, metrics.json, trace.json} + fig4_summary.json.
  EXPECT_EQ(std::distance(fs::directory_iterator(serial_dir),
                          fs::directory_iterator{}),
            10);
  expect_dirs_identical(serial_dir, parallel_dir, /*with_traces=*/true);
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

TEST(SweepDeterminism, ChaosArtifactsByteIdenticalAcrossJobs) {
  const fs::path serial_dir = fresh_dir("chaos_j1");
  const fs::path parallel_dir = fresh_dir("chaos_j8");
  const auto serial = run_chaos_sweep(quick_chaos(serial_dir, 1));
  const auto parallel = run_chaos_sweep(quick_chaos(parallel_dir, 8));

  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(without_artifact_line(parallel[i].summary),
              without_artifact_line(serial[i].summary))
        << "cell " << i;
    EXPECT_EQ(parallel[i].log, serial[i].log) << "cell " << i;
    EXPECT_TRUE(serial[i].ok) << "cell " << i;
    EXPECT_TRUE(parallel[i].ok) << "cell " << i;
  }
  EXPECT_EQ(serial[0].stem, (serial_dir / "chaos_s1").string());
  expect_dirs_identical(serial_dir, parallel_dir);
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

// The overload harness's controller runs on a FleetTarget, which emits
// no wall-clock spans, so trace.json joins the contract here too.
TEST(SweepDeterminism, OverloadArtifactsByteIdenticalAcrossJobs) {
  const fs::path serial_dir = fresh_dir("overload_j1");
  const fs::path parallel_dir = fresh_dir("overload_j2");
  const auto serial = run_overload_sweep(quick_overload(serial_dir, 1));
  const auto parallel = run_overload_sweep(quick_overload(parallel_dir, 2));

  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(without_artifact_line(parallel[i].summary),
              without_artifact_line(serial[i].summary))
        << "cell " << i;
    EXPECT_EQ(parallel[i].log, serial[i].log) << "cell " << i;
    EXPECT_EQ(parallel[i].ok, serial[i].ok) << "cell " << i;
  }
  EXPECT_EQ(serial[0].stem, (serial_dir / "overload_flooder").string());
  // 2 cells x {metrics.json, trace.json} + overload_summary.json.
  EXPECT_EQ(std::distance(fs::directory_iterator(serial_dir),
                          fs::directory_iterator{}),
            5);
  expect_dirs_identical(serial_dir, parallel_dir, /*with_traces=*/true);
}

TEST(SweepDeterminism, RerunIsBitIdenticalToItself) {
  // Same jobs count twice: catches nondeterminism that isn't about
  // scheduling at all (e.g. uninitialized state leaking into output).
  const fs::path a_dir = fresh_dir("chaos_rep_a");
  const fs::path b_dir = fresh_dir("chaos_rep_b");
  run_chaos_sweep(quick_chaos(a_dir, 8));
  run_chaos_sweep(quick_chaos(b_dir, 8));
  expect_dirs_identical(a_dir, b_dir);
}

}  // namespace
}  // namespace qv::experiments
