// One experiment grid: the runner and the command-line front that the
// six experiment binaries (fig2, fig4, chaos, overload, dataplane_chaos,
// rollout_chaos) share. This header includes no experiment header.
//
// The runner (run_grid) owns what every grid has in common:
//
//  * grid order — the first axis outer, loads next, seeds inner: the
//    nested loops a serial program would write;
//  * the artifact stem rule —
//    <out_dir>/<stem>[_<slug>][_l<load%>][_s<seed>], where the load and
//    seed suffixes appear only when that axis has more than one value;
//  * each cell's observability bundle — built from GridSpec::obs with
//    one mask rule (every trace category but `sim`; `sim` too under
//    trace_sim; none without trace), written after the cell returns as
//    <stem>_metrics.json then <stem>_trace.json (neither if it throws);
//  * log capture — each cell's QV_LOG records land in its SweepCell
//    instead of stderr, so concurrent cells never interleave;
//  * the --jobs contract — cells fan across exec::run_sweep and come
//    back in grid order, so every artifact a cell derives from
//    simulated time alone is byte-identical for every jobs value;
//  * <experiment>_summary.json — {"experiment": ..., "grid": [...]},
//    one row per cell in grid order, each row opening with the cell's
//    axis values and seed.
//
// An experiment supplies only its cell run: it records into the bundle
// (freeze()ing the registry before what its views read dies), writes
// any artifact of its own (flows.csv, a config store), its stdout block
// into SweepCell::summary, its verdict into SweepCell::ok, and the rest
// of its summary row.
//
// The front (GridCli) declares and validates the flags every grid
// binary shares — --seed/--seeds, --out, --jobs, the first axis, fig4's
// --load/--loads and the observability flags — and its report() prints
// the cells in grid order and turns their verdicts into the exit code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace qv::obs {
class JsonWriter;
struct Observability;
}

namespace qv::experiments {

/// One completed grid cell, in grid order.
struct SweepCell {
  std::string stem;     ///< artifact path stem (out_dir + "/fig2_qvisor"...)
  std::string summary;  ///< human-readable result block (newline-terminated)
  std::string log;      ///< captured QV_LOG records from this run
  bool ok = true;       ///< the experiment's run-level verdict
};

/// The observability shape of every cell of a grid. fig2, fig4, chaos
/// and overload take it from the command line; dataplane_chaos and
/// rollout_chaos run with the defaults.
struct SweepObsOptions {
  bool trace = true;
  bool trace_sim = false;  ///< fig2/fig4: also trace simulator dispatch
  std::size_t trace_capacity = 1u << 16;
  std::int64_t sample_interval_us = 100;  ///< fig2/fig4 samplers
};

/// printf-append into a cell's summary block (at most 511 bytes per
/// call): workers build their blocks here and the report prints them in
/// grid order, never straight to stdout.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out,
                                           const char* fmt, ...);

/// Where one cell sits in its grid.
struct GridPoint {
  std::size_t axis = 0;  ///< index into GridSpec::axis (0 without one)
  double load = 0;       ///< the cell's load (0 without a load axis)
  std::uint64_t seed = 0;
};

struct GridSpec {
  std::string experiment;  ///< <experiment>_summary.json and its tag
  std::string stem;        ///< artifact stem prefix, e.g. "fig4"
  std::string axis_key = {};  ///< summary key of the first axis; "" = none
  std::vector<std::string> axis = {};  ///< one slug per first-axis value
  std::vector<double> loads = {};      ///< empty = no load axis
  std::vector<std::uint64_t> seeds;
  std::string out_dir;
  std::size_t jobs = 0;  ///< 0 = hardware_concurrency, 1 = serial
  SweepObsOptions obs = {};  ///< every cell's bundle
};

/// A cell run: `cell.stem` is set and `obs` is the cell's fresh bundle;
/// the run records into `obs`, writes its own artifacts, cell.summary,
/// cell.ok and its own keys of the open summary row.
using GridCellRun =
    std::function<void(const GridPoint& point, SweepCell& cell,
                       obs::Observability& obs, obs::JsonWriter& row)>;

/// Run every cell of the grid, write each cell's metrics.json and
/// trace.json and <out_dir>/<experiment>_summary.json, and return the
/// cells in grid order. A cell's exception is rethrown (lowest grid
/// index first) and no summary is written.
std::vector<SweepCell> run_grid(const GridSpec& spec, const GridCellRun& run);

/// The slug of every value, in order: GridSpec::axis and the front's
/// axis declaration.
template <typename E>
std::vector<std::string> slugs(const std::vector<E>& values,
                               const char* (*slug)(E)) {
  std::vector<std::string> out;
  for (const E v : values) out.emplace_back(slug(v));
  return out;
}

/// Parse an axis value: `csv` is a comma-separated list of `slugs`, or
/// `all` (an empty list also means all). `picked` receives the slug
/// indices in the order given. False on an empty or unknown slug.
bool parse_axis(const std::string& csv, const std::vector<std::string>& slugs,
                std::vector<std::size_t>* picked);

class GridCli {
 public:
  /// `prog` prefixes every message; `seed_help` documents --seed.
  GridCli(std::string prog, const std::string& seed_help);

  /// Declare the first axis: --<flag> takes one slug, a comma-separated
  /// slug list, or `all`.
  void axis(const std::string& flag, const std::string& default_value,
            const std::string& help, std::vector<std::string> slugs);
  /// Declare --load and --loads (a load list that overrides --load).
  void loads(double default_load, const std::string& help);
  /// Declare --trace and --trace-capacity; with `simulator`, also
  /// --trace-sim and --sample-interval-us.
  void obs(bool simulator);

  /// Declare the binary's own flags here before parse().
  Flags& flags() { return flags_; }

  /// Parse and validate argv (--out must name an existing directory).
  /// False when main should return status(): 0 after --help, 1 after an
  /// error (already printed to stderr).
  bool parse(int argc, char** argv);
  int status() const { return flags_.help_requested() ? 0 : 1; }

  /// The first-axis values picked on the command line; `all` must list
  /// the values in the order of the slugs given to axis().
  template <typename E>
  std::vector<E> pick(const std::vector<E>& all) const {
    std::vector<E> out;
    for (const std::size_t i : picked_) out.push_back(all[i]);
    return out;
  }

  /// Fill a sweep config's seeds, out_dir and jobs, and its loads and
  /// obs where it has them.
  template <typename Sweep>
  void apply(Sweep& sweep) const {
    sweep.seeds = seeds_;
    sweep.out_dir = flags_.get_string("out");
    sweep.jobs = jobs_;
    if constexpr (requires { sweep.loads; }) {
      if (has_loads_) sweep.loads = loads_;
    }
    if constexpr (requires { sweep.obs; }) sweep.obs = obs_;
  }

  /// Print each cell's log to stderr and its block to stdout, in grid
  /// order, and name every cell whose verdict failed as
  /// "<prog>: <violation> (<stem>)". Returns the exit code: 0 when every
  /// cell is ok, else 1.
  int report(const std::vector<SweepCell>& cells,
             const char* violation = "INVARIANT VIOLATED") const;

 private:
  bool fail(const std::string& message) const;

  std::string prog_;
  Flags flags_;
  std::string axis_flag_;
  std::vector<std::string> axis_slugs_;
  bool has_loads_ = false;
  bool has_obs_ = false;
  bool obs_sim_ = false;

  std::vector<std::size_t> picked_;
  std::vector<std::uint64_t> seeds_;
  std::vector<double> loads_;
  std::size_t jobs_ = 0;
  SweepObsOptions obs_;
};

}  // namespace qv::experiments
