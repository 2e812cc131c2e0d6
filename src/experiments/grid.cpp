#include "experiments/grid.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "exec/sweep.hpp"
#include "obs/json_writer.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace qv::experiments {

namespace {

/// Parse "a,b,c" token by token with `one`; false on the first token it
/// rejects (an empty token included).
template <typename T, typename Parse>
bool parse_list(const std::string& csv, Parse one, std::vector<T>* out) {
  out->clear();
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    T value;
    if (!one(csv.substr(pos, comma - pos), &value)) return false;
    out->push_back(value);
    if (comma == csv.size()) return true;
    pos = comma + 1;
  }
}

std::uint32_t trace_mask(const SweepObsOptions& opts) {
  if (!opts.trace) return 0;
  const std::uint32_t sim = obs::trace_bit(obs::TraceCategory::kSim);
  return opts.trace_sim ? obs::kTraceAll : obs::kTraceAll & ~sim;
}

}  // namespace

void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

// --- runner ---------------------------------------------------------------

std::vector<SweepCell> run_grid(const GridSpec& spec, const GridCellRun& run) {
  const bool has_axis = !spec.axis_key.empty();
  const std::size_t axes = has_axis ? spec.axis.size() : 1;
  const std::size_t loads = std::max<std::size_t>(spec.loads.size(), 1);
  const std::size_t seeds = spec.seeds.size();

  struct Rendered {
    SweepCell cell;
    std::string row;  ///< the cell's summary row, rendered in the worker
  };
  auto outs = exec::run_sweep<Rendered>(
      axes * loads * seeds,
      [&](std::size_t i) {
        GridPoint point;
        point.axis = i / (loads * seeds);
        if (!spec.loads.empty()) point.load = spec.loads[i / seeds % loads];
        point.seed = spec.seeds[i % seeds];

        Rendered out;
        std::string& stem = out.cell.stem;
        stem = spec.out_dir + "/" + spec.stem;
        if (has_axis) stem += "_" + spec.axis[point.axis];
        if (spec.loads.size() > 1) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "_l%g", point.load * 100.0);
          stem += buf;
        }
        if (seeds > 1) stem += "_s" + std::to_string(point.seed);

        obs::Observability bundle(spec.obs.trace_capacity);
        bundle.sample_interval = microseconds(spec.obs.sample_interval_us);
        bundle.tracer.set_mask(trace_mask(spec.obs));

        ScopedLogCapture capture(&out.cell.log);
        std::ostringstream row;
        obs::JsonWriter w(row);
        w.begin_object();
        if (has_axis) w.key(spec.axis_key).value(spec.axis[point.axis]);
        if (!spec.loads.empty()) w.key("load").value(point.load);
        w.key("seed").value(point.seed);
        run(point, out.cell, bundle, w);
        w.end_object();
        out.row = row.str();
        obs::save_metrics_json(stem + "_metrics.json", bundle.registry);
        obs::save_trace_json(stem + "_trace.json", bundle.tracer);
        return out;
      },
      {spec.jobs});

  const std::string path =
      spec.out_dir + "/" + spec.experiment + "_summary.json";
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write " + path);
  obs::JsonWriter w(file);
  w.begin_object();
  w.key("experiment").value(spec.experiment);
  w.key("grid").begin_array();
  for (const Rendered& o : outs) w.raw(o.row);
  w.end_array();
  w.end_object();
  file << "\n";

  std::vector<SweepCell> cells;
  cells.reserve(outs.size());
  for (Rendered& o : outs) cells.push_back(std::move(o.cell));
  return cells;
}

// --- front ----------------------------------------------------------------

bool parse_axis(const std::string& csv, const std::vector<std::string>& slugs,
                std::vector<std::size_t>* picked) {
  if (csv.empty() || csv == "all") {
    picked->resize(slugs.size());
    std::iota(picked->begin(), picked->end(), std::size_t{0});
    return true;
  }
  return parse_list(csv,
                    [&slugs](const std::string& name, std::size_t* index) {
                      const auto it =
                          std::find(slugs.begin(), slugs.end(), name);
                      *index = static_cast<std::size_t>(it - slugs.begin());
                      return it != slugs.end();
                    },
                    picked);
}

GridCli::GridCli(std::string prog, const std::string& seed_help)
    : prog_(std::move(prog)) {
  flags_.define_int("seed", 1, seed_help);
  flags_.define_string("seeds", "",
                       "comma-separated seed list (grid axis); overrides "
                       "--seed");
  flags_.define_string("out", ".",
                       "output directory for run artifacts (must exist)");
  flags_.define_int("jobs", 0,
                    "parallel cells (0 = hardware concurrency, 1 = serial)");
}

void GridCli::axis(const std::string& flag, const std::string& default_value,
                   const std::string& help, std::vector<std::string> slugs) {
  axis_flag_ = flag;
  axis_slugs_ = std::move(slugs);
  flags_.define_string(flag, default_value, help);
}

void GridCli::loads(double default_load, const std::string& help) {
  has_loads_ = true;
  flags_.define_double("load", default_load, help);
  flags_.define_string("loads", "",
                       "comma-separated load list (grid axis); overrides "
                       "--load");
}

void GridCli::obs(bool simulator) {
  has_obs_ = true;
  obs_sim_ = simulator;
  flags_.define_int("trace-capacity", 1 << 16,
                    "trace ring capacity (events; oldest overwritten)");
  flags_.define_bool("trace", true, "emit the timeline trace at all");
  if (simulator) {
    flags_.define_bool("trace-sim", false,
                       "also trace simulator event dispatch (voluminous)");
    flags_.define_int("sample-interval-us", 100,
                      "periodic sampler cadence (simulated microseconds)");
  }
}

bool GridCli::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", prog_.c_str(), message.c_str());
  return false;
}

bool GridCli::parse(int argc, char** argv) {
  if (!flags_.parse(argc, argv) || flags_.help_requested()) return false;

  const std::string& out = flags_.get_string("out");
  std::error_code ec;
  if (!std::filesystem::is_directory(out, ec)) {
    return fail("--out '" + out + "' is not a directory");
  }

  const std::int64_t jobs = flags_.get_int("jobs");
  if (jobs < 0) {
    return fail("--jobs must be >= 0, got " + std::to_string(jobs));
  }
  jobs_ = static_cast<std::size_t>(jobs);

  const std::string& seeds = flags_.get_string("seeds");
  if (seeds.empty()) {
    seeds_ = {static_cast<std::uint64_t>(flags_.get_int("seed"))};
  } else if (!parse_list(seeds, parse_u64, &seeds_)) {
    return fail("bad --seeds '" + seeds + "'");
  }

  if (!axis_flag_.empty()) {
    const std::string& value = flags_.get_string(axis_flag_);
    if (!parse_axis(value, axis_slugs_, &picked_)) {
      return fail("bad --" + axis_flag_ + " '" + value + "'");
    }
  }

  if (has_loads_) {
    const std::string& loads = flags_.get_string("loads");
    if (loads.empty()) {
      loads_ = {flags_.get_double("load")};
    } else if (!parse_list(loads, parse_double, &loads_)) {
      return fail("bad --loads '" + loads + "'");
    }
  }

  if (has_obs_) {
    const std::int64_t capacity = flags_.get_int("trace-capacity");
    if (capacity < 1) {
      return fail("--trace-capacity must be >= 1, got " +
                  std::to_string(capacity));
    }
    obs_.trace = flags_.get_bool("trace");
    obs_.trace_capacity = static_cast<std::size_t>(capacity);
    if (obs_sim_) {
      obs_.trace_sim = flags_.get_bool("trace-sim");
      obs_.sample_interval_us = flags_.get_int("sample-interval-us");
    }
  }
  return true;
}

int GridCli::report(const std::vector<SweepCell>& cells,
                    const char* violation) const {
  bool all_ok = true;
  for (const SweepCell& cell : cells) {
    if (!cell.log.empty()) std::fputs(cell.log.c_str(), stderr);
    std::fputs(cell.summary.c_str(), stdout);
    if (!cell.ok) {
      std::fprintf(stderr, "%s: %s (%s)\n", prog_.c_str(), violation,
                   cell.stem.c_str());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace qv::experiments
