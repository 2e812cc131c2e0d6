// The one experiment grid (experiments/grid.hpp): the runner's grid
// order, stem rule, log capture, per-cell observability bundle and
// artifacts, and summary framing on a toy cell run, and the
// command-line front's shared flags, axis spellings and bounds.
#include "experiments/grid.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json_writer.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace qv::experiments {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
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

/// A cell run that records its point and fails the cell for seed 2.
void toy_cell(const GridPoint& p, SweepCell& cell, obs::Observability&,
              obs::JsonWriter& row) {
  QV_WARN << "cell " << p.axis << "/" << p.load << "/" << p.seed;
  appendf(cell.summary, "toy %zu %.1f %llu\n", p.axis, p.load,
          static_cast<unsigned long long>(p.seed));
  cell.ok = p.seed != 2;
  row.key("ok").value(cell.ok);
}

TEST(RunGrid, AxisOuterLoadsNextSeedsInner) {
  const fs::path dir = fresh_dir("grid_order");
  const GridSpec spec{.experiment = "toy",
                      .stem = "t",
                      .axis_key = "kind",
                      .axis = {"a", "b"},
                      .loads = {0.5, 0.8},
                      .seeds = {1, 2},
                      .out_dir = dir.string(),
                      .jobs = 2};
  const auto cells = run_grid(spec, toy_cell);
  ASSERT_EQ(cells.size(), 8u);
  const std::vector<std::string> stems = {
      "t_a_l50_s1", "t_a_l50_s2", "t_a_l80_s1", "t_a_l80_s2",
      "t_b_l50_s1", "t_b_l50_s2", "t_b_l80_s1", "t_b_l80_s2"};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].stem, (dir / stems[i]).string());
    EXPECT_EQ(cells[i].ok, i % 2 == 0) << i;
  }
  // Each cell's log lands in its own cell, whatever thread ran it.
  EXPECT_EQ(cells[5].log, "[WARN] cell 1/0.5/2\n");
  EXPECT_EQ(cells[2].summary, "toy 0 0.8 1\n");
}

TEST(RunGrid, SuffixesOnlyForAxesWithSeveralValues) {
  const fs::path dir = fresh_dir("grid_stems");
  const GridSpec with_load{.experiment = "toy",
                           .stem = "t",
                           .axis_key = "kind",
                           .axis = {"a"},
                           .loads = {0.3},
                           .seeds = {7},
                           .out_dir = dir.string(),
                           .jobs = 1};
  EXPECT_EQ(run_grid(with_load, toy_cell).at(0).stem,
            (dir / "t_a").string());
  const GridSpec no_axis{.experiment = "toy",
                         .stem = "t",
                         .seeds = {1, 7},
                         .out_dir = dir.string(),
                         .jobs = 1};
  const auto cells = run_grid(no_axis, toy_cell);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1].stem, (dir / "t_s7").string());
}

TEST(RunGrid, SummaryFramesOneRowPerCellInGridOrder) {
  const fs::path dir = fresh_dir("grid_summary");
  const GridSpec spec{.experiment = "toy",
                      .stem = "t",
                      .axis_key = "kind",
                      .axis = {"a", "b"},
                      .loads = {0.3},
                      .seeds = {1},
                      .out_dir = dir.string(),
                      .jobs = 2};
  run_grid(spec, toy_cell);
  EXPECT_EQ(slurp(dir / "toy_summary.json"),
            "{\"experiment\":\"toy\",\"grid\":["
            "{\"kind\":\"a\",\"load\":0.3,\"seed\":1,\"ok\":true},"
            "{\"kind\":\"b\",\"load\":0.3,\"seed\":1,\"ok\":true}]}\n");
}

/// A cell run that records its seed, the bundle's sampler cadence and
/// one event per enabled trace category into the runner's bundle.
void recording_cell(const GridPoint& p, SweepCell&, obs::Observability& obs,
                    obs::JsonWriter&) {
  obs.registry.counter("toy.seed").inc(p.seed);
  obs.registry.set_gauge("toy.sample_interval_ns",
                         static_cast<double>(obs.sample_interval));
  for (const auto cat :
       {obs::TraceCategory::kSim, obs::TraceCategory::kSched,
        obs::TraceCategory::kQvisor, obs::TraceCategory::kRuntime,
        obs::TraceCategory::kMgmt, obs::TraceCategory::kDataplane}) {
    if (obs.tracer.enabled(cat)) {
      obs.tracer.instant(cat, obs::trace_category_name(cat), 1);
    }
  }
}

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(RunGrid, EveryCellGetsMetricsAndTraceFromTheRunner) {
  const fs::path dir = fresh_dir("grid_artifacts");
  GridSpec spec{.experiment = "toy",
                .stem = "t",
                .seeds = {1, 7},
                .out_dir = dir.string(),
                .jobs = 2};
  spec.obs.trace_capacity = 4;
  spec.obs.sample_interval_us = 250;
  const auto cells = run_grid(spec, recording_cell);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string metrics = slurp(cells[i].stem + "_metrics.json");
    EXPECT_NE(metrics.find("\"toy.seed\":" + std::to_string(spec.seeds[i])),
              std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("\"toy.sample_interval_ns\":250000"),
              std::string::npos)
        << metrics;
    // Every category but sim recorded one event: five into a 4-slot
    // ring, so the oldest (sched) was overwritten.
    const std::string trace = slurp(cells[i].stem + "_trace.json");
    EXPECT_EQ(count(trace, "\"cat\":"), 4u) << trace;
    for (const char* cat : {"qvisor", "runtime", "mgmt", "dataplane"}) {
      EXPECT_EQ(count(trace, std::string("\"cat\":\"") + cat + "\""), 1u)
          << cat;
    }
    EXPECT_NE(trace.find("\"dropped_events\":1}"), std::string::npos);
  }
  // 2 cells x {metrics.json, trace.json} + toy_summary.json.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator{}),
            5);

  // trace_sim adds the simulator's category; no trace leaves only the
  // process-name metadata.
  spec.obs = {.trace_sim = true};
  run_grid(spec, recording_cell);
  EXPECT_EQ(count(slurp(dir / "t_s1_trace.json"), "\"cat\":"), 6u);
  spec.obs = {.trace = false};
  run_grid(spec, recording_cell);
  EXPECT_EQ(count(slurp(dir / "t_s1_trace.json"), "\"cat\":"), 0u);
}

TEST(RunGrid, ThrowingCellWritesNoArtifacts) {
  const fs::path dir = fresh_dir("grid_throw");
  const GridSpec spec{.experiment = "toy",
                      .stem = "t",
                      .seeds = {1, 2},
                      .out_dir = dir.string(),
                      .jobs = 1};
  EXPECT_THROW(run_grid(spec,
                        [](const GridPoint& p, SweepCell& cell,
                           obs::Observability& obs, obs::JsonWriter& row) {
                          recording_cell(p, cell, obs, row);
                          if (p.seed == 2) {
                            throw std::runtime_error("cell failed");
                          }
                        }),
               std::runtime_error);
  // The cell that threw left nothing, and no summary was written.
  EXPECT_FALSE(fs::exists(dir / "t_s2_metrics.json"));
  EXPECT_FALSE(fs::exists(dir / "t_s2_trace.json"));
  EXPECT_FALSE(fs::exists(dir / "toy_summary.json"));
}

/// Build an argv vector from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

/// A front shaped like fig4's: an axis, loads and the simulator flags.
struct Front {
  GridCli cli{"toy", "seed"};
  Front() {
    cli.axis("scheme", "b", "a | b | c | all", {"a", "b", "c"});
    cli.loads(0.5, "load");
    cli.obs(/*simulator=*/true);
  }
  bool parse(std::vector<std::string> args) {
    args.insert(args.begin(), "toy");
    Argv a(std::move(args));
    return cli.parse(a.argc(), a.argv());
  }
};

struct Sweep {
  std::vector<std::uint64_t> seeds;
  std::vector<double> loads;
  std::string out_dir;
  std::size_t jobs = 0;
  SweepObsOptions obs;
};

TEST(GridCli, DefaultsFillTheSweep) {
  Front f;
  ASSERT_TRUE(f.parse({}));
  EXPECT_EQ(f.cli.pick(std::vector<char>{'a', 'b', 'c'}),
            std::vector<char>{'b'});
  Sweep s;
  f.cli.apply(s);
  EXPECT_EQ(s.seeds, std::vector<std::uint64_t>{1});
  EXPECT_EQ(s.loads, std::vector<double>{0.5});
  EXPECT_EQ(s.out_dir, ".");
  EXPECT_EQ(s.jobs, 0u);
  EXPECT_EQ(s.obs.trace_capacity, std::size_t{1} << 16);
}

TEST(GridCli, ListsOverrideSingleValues) {
  Front f;
  const std::string out = ::testing::TempDir();
  ASSERT_TRUE(f.parse({"--seed", "9", "--seeds", "1,7,1337", "--loads",
                       "0.2,0.8", "--jobs", "2", "--out", out,
                       "--trace-capacity", "4096", "--no-trace"}));
  Sweep s;
  f.cli.apply(s);
  EXPECT_EQ(s.seeds, (std::vector<std::uint64_t>{1, 7, 1337}));
  EXPECT_EQ(s.loads, (std::vector<double>{0.2, 0.8}));
  EXPECT_EQ(s.out_dir, out);
  EXPECT_EQ(s.jobs, 2u);
  EXPECT_EQ(s.obs.trace_capacity, 4096u);
  EXPECT_FALSE(s.obs.trace);
}

TEST(GridCli, AxisTakesOneSlugAListOrAll) {
  const std::vector<int> all = {0, 1, 2};
  const std::vector<std::pair<std::string, std::vector<int>>> spellings = {
      {"c", {2}}, {"c,a", {2, 0}}, {"all", {0, 1, 2}}, {"", {0, 1, 2}}};
  for (const auto& [value, want] : spellings) {
    Front f;
    ASSERT_TRUE(f.parse({"--scheme=" + value})) << value;
    EXPECT_EQ(f.cli.pick(all), want) << value;
  }
  for (const std::string bad : {"d", "a,", "a,,b", "All"}) {
    Front f;
    EXPECT_FALSE(f.parse({"--scheme=" + bad})) << bad;
    EXPECT_EQ(f.cli.status(), 1) << bad;
  }
}

TEST(GridCli, RejectsMalformedLists) {
  const std::vector<std::vector<std::string>> cases = {
      {"--seeds", "1,x"},
      {"--seeds", "1,,7"},
      {"--loads", "0.3abc"},
      {"--loads", "0.2,"}};
  for (const auto& args : cases) {
    Front f;
    EXPECT_FALSE(f.parse(args)) << args[1];
  }
}

TEST(GridCli, RejectsNegativeJobsAndTraceCapacityBelowOne) {
  const std::vector<std::vector<std::string>> cases = {
      {"--jobs", "-3"}, {"--trace-capacity", "0"}, {"--trace-capacity", "-1"}};
  for (const auto& args : cases) {
    Front f;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(f.parse(args)) << args[0] << " " << args[1];
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(f.cli.status(), 1);
    EXPECT_NE(err.find("toy: " + args[0] + " must be >= "),
              std::string::npos)
        << err;
  }
}

// Checked before any cell runs: an unwritable --out would otherwise
// fail only after the first cell's work, on its first artifact.
TEST(GridCli, RejectsMissingOutDir) {
  const fs::path file = fresh_dir("grid_out") / "file";
  std::ofstream(file) << "x";
  for (const std::string& out :
       {(fs::path(::testing::TempDir()) / "no_such_dir").string(),
        file.string()}) {
    Front f;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(f.parse({"--out", out}));
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(f.cli.status(), 1);
    EXPECT_EQ(err, "toy: --out '" + out + "' is not a directory\n");
  }
}

TEST(GridCli, HelpExitsZeroWithoutRunning) {
  Front f;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(f.parse({"--help"}));
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(f.cli.status(), 0);
}

TEST(GridCli, ReportNamesEveryFailedCellAndExitsNonZero) {
  GridCli cli("toy", "seed");
  std::vector<SweepCell> cells(2);
  cells[0].stem = "d/t_s1";
  cells[0].summary = "one\n";
  cells[1].stem = "d/t_s2";
  cells[1].summary = "two\n";
  cells[1].log = "[WARN] x\n";
  cells[1].ok = false;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc = cli.report(cells, "CONTRACT VIOLATED");
  const std::string err = ::testing::internal::GetCapturedStderr();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 1);
  EXPECT_EQ(out, "one\ntwo\n");
  EXPECT_EQ(err, "[WARN] x\ntoy: CONTRACT VIOLATED (d/t_s2)\n");
  cells[1].ok = true;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(cli.report(cells), 0);
  ::testing::internal::GetCapturedStderr();
  ::testing::internal::GetCapturedStdout();
}

}  // namespace
}  // namespace qv::experiments
