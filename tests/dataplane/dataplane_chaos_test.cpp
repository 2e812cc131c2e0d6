// The acceptance grid for the dataplane fault domain, in ctest form:
// every injected fault kind x >= 3 seeds must recover with balanced
// books, itemized + bounded loss, restores within budget, and the
// fault-free supervised path byte-identical to supervision disabled.
// The same harness backs the dataplane_chaos CLI; here it runs with a
// shortened stream so the whole grid stays in unit-test time.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/dataplane_chaos.hpp"
#include "mgmt/json.hpp"

namespace qv::experiments {
namespace {

TEST(DataplaneChaosHarness, EveryFaultKindRecoversAcrossSeeds) {
  for (const DataplaneFaultKind kind : dataplane_all_fault_kinds()) {
    for (const std::uint64_t seed : {1ull, 7ull, 1337ull}) {
      DataplaneChaosConfig config;
      config.kind = kind;
      config.seed = seed;
      config.base.packets_per_port = 2000;
      const DataplaneChaosResult r = run_dataplane_chaos(config);

      const std::string cell = std::string(dataplane_fault_kind_slug(kind)) +
                               " seed " + std::to_string(seed);
      EXPECT_TRUE(r.balanced) << cell;
      EXPECT_TRUE(r.faultfree_identical) << cell;
      EXPECT_TRUE(r.replay_identical) << cell;
      EXPECT_TRUE(r.loss_bounded)
          << cell << ": lost " << r.max_lost_per_recovery << " of bound "
          << r.loss_bound;
      EXPECT_TRUE(r.recovery_bounded)
          << cell << ": slowest restore " << r.max_restore_ns << " ns";
      EXPECT_TRUE(r.activity_seen)
          << cell << ": restores " << r.restores << ", quarantined "
          << r.quarantined << ", desyncs " << r.desyncs
          << ", watchdog detects " << r.watchdog_detects;
      EXPECT_TRUE(r.ok) << cell;
      // Conservation including the new counters, restated from the raw
      // tallies so a bug in the verdict plumbing cannot hide one.
      EXPECT_EQ(r.generated,
                r.processed + r.quarantined + r.lost_in_flight)
          << cell;
    }
  }
}

mgmt::JsonValue load_json(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  mgmt::JsonParseResult doc = mgmt::parse_json(text.str());
  EXPECT_TRUE(doc.ok()) << path << ": " << doc.error;
  return doc.ok() ? std::move(*doc.value) : mgmt::JsonValue();
}

/// The summary rows' kind, seed and verdict fields: the part of
/// dpchaos_summary.json that no thread timing can move.
std::vector<std::string> summary_verdicts(const std::string& path) {
  const mgmt::JsonValue doc = load_json(path);
  if (doc.find("grid") == nullptr) return {};
  EXPECT_EQ(doc.find("experiment")->as_string(), "dpchaos");
  std::vector<std::string> rows;
  for (const mgmt::JsonValue& row : doc.find("grid")->as_array()) {
    std::string r = row.find("kind")->as_string() + " s" +
                    std::to_string(row.find("seed")->as_int());
    for (const char* verdict :
         {"balanced", "faultfree_identical", "replay_identical",
          "loss_bounded", "recovery_bounded", "activity_seen", "ok"}) {
      r += std::string(" ") + verdict + "=" +
           (row.find(verdict)->as_bool() ? "1" : "0");
    }
    rows.push_back(r);
  }
  return rows;
}

TEST(DataplaneChaosHarness, SweepWritesArtifactsAndSummary) {
  std::vector<std::vector<std::string>> verdicts;
  for (const std::size_t jobs : {1u, 2u}) {
    const std::filesystem::path root =
        std::filesystem::path(::testing::TempDir()) /
        ("qv_dpchaos_sweep_j" + std::to_string(jobs));
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);

    DataplaneChaosSweepConfig sweep;
    sweep.base.base.packets_per_port = 2000;
    sweep.kinds = {DataplaneFaultKind::kCrash, DataplaneFaultKind::kPoison};
    sweep.seeds = {7};
    sweep.out_dir = root.string();
    sweep.jobs = jobs;
    const auto cells = run_dataplane_chaos_sweep(sweep);

    // Grid order: kinds outer; one seed, so no _s suffix.
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].stem, (root / "dpchaos_crash").string());
    EXPECT_EQ(cells[1].stem, (root / "dpchaos_poison").string());
    for (const auto& cell : cells) {
      EXPECT_TRUE(cell.ok) << cell.summary;
      EXPECT_EQ(cell.summary.rfind("dpchaos ", 0), 0u) << cell.summary;
      EXPECT_TRUE(std::filesystem::exists(cell.stem + "_metrics.json"));
      EXPECT_TRUE(std::filesystem::exists(cell.stem + "_trace.json"));
    }
    verdicts.push_back(
        summary_verdicts((root / "dpchaos_summary.json").string()));
    ASSERT_EQ(verdicts.back().size(), cells.size());
    EXPECT_EQ(verdicts.back()[0].rfind("crash s7 ", 0), 0u);
    std::filesystem::remove_all(root);
  }
  EXPECT_EQ(verdicts[0], verdicts[1]);
}

/// The keys of an event's args, in the order written.
std::vector<std::string> arg_keys(const mgmt::JsonValue& event) {
  std::vector<std::string> keys;
  if (const mgmt::JsonValue* args = event.find("args")) {
    for (const auto& [key, value] : args->as_object()) keys.push_back(key);
  }
  return keys;
}

// The runner writes each cell's trace.json from the tracer the cell
// recorded into: a crash cell carries one recover:crash span per
// restore, a poison cell one quarantine instant per isolated packet,
// each with all of its args, on a named shard lane.
TEST(DataplaneChaosHarness, TraceCarriesRecoveriesAndQuarantines) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "qv_dpchaos_trace";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  DataplaneChaosSweepConfig sweep;
  sweep.base.base.packets_per_port = 2000;
  sweep.kinds = {DataplaneFaultKind::kCrash, DataplaneFaultKind::kPoison};
  sweep.seeds = {7};
  sweep.out_dir = root.string();
  sweep.jobs = 1;
  const auto cells = run_dataplane_chaos_sweep(sweep);
  ASSERT_EQ(cells.size(), 2u);
  const mgmt::JsonValue summary =
      load_json((root / "dpchaos_summary.json").string());
  const mgmt::JsonValue::Array& rows = summary.find("grid")->as_array();
  ASSERT_EQ(rows.size(), 2u);

  // JsonValue objects iterate sorted, so arg keys come back sorted.
  const std::vector<std::string> recover_args = {"at_burst", "drained",
                                                 "lost"};
  const std::vector<std::string> quarantine_args = {"faults", "port", "seq",
                                                    "tenant"};
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const mgmt::JsonValue trace = load_json(cells[c].stem + "_trace.json");
    std::int64_t crash_spans = 0;
    std::int64_t quarantines = 0;
    std::vector<std::int64_t> span_lanes;
    std::vector<std::int64_t> named_lanes;
    for (const mgmt::JsonValue& e : trace.find("traceEvents")->as_array()) {
      const std::string name = e.find("name")->as_string();
      const std::string ph = e.find("ph")->as_string();
      if (name == "thread_name") {
        named_lanes.push_back(e.find("tid")->as_int());
        EXPECT_EQ(e.find("args")->find("name")->as_string(),
                  "shard" + std::to_string(e.find("tid")->as_int()));
        continue;
      }
      if (ph == "M") continue;
      EXPECT_EQ(e.find("cat")->as_string(), "dataplane") << name;
      if (ph == "X") {
        EXPECT_EQ(name.rfind("recover:", 0), 0u) << name;
        EXPECT_EQ(arg_keys(e), recover_args) << name;
        const std::int64_t drained =
            e.find("args")->find("drained")->as_int();
        EXPECT_TRUE(drained == 0 || drained == 1) << drained;
        span_lanes.push_back(e.find("tid")->as_int());
        crash_spans += name == "recover:crash";
      } else {
        EXPECT_EQ(ph, "i");
        EXPECT_EQ(name, "quarantine");
        EXPECT_EQ(arg_keys(e), quarantine_args);
        EXPECT_GE(e.find("args")->find("faults")->as_int(), 1);
        ++quarantines;
      }
    }
    // Every lane a span sits on is named.
    for (const std::int64_t lane : span_lanes) {
      EXPECT_NE(std::find(named_lanes.begin(), named_lanes.end(), lane),
                named_lanes.end())
          << lane;
    }
    const mgmt::JsonValue& row = rows[c];
    if (c == 0) {  // crash: one span per restore
      EXPECT_GE(crash_spans, 1);
      EXPECT_EQ(crash_spans, row.find("restores")->as_int());
      EXPECT_EQ(quarantines, 0);
    } else {  // poison: one instant per isolated packet
      EXPECT_GE(quarantines, 1);
      EXPECT_EQ(quarantines, row.find("quarantined")->as_int());
      EXPECT_EQ(crash_spans, 0);
    }
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace qv::experiments
