// The four simulated experiment grids — fig2 schemes x seeds, fig4
// schemes x loads x seeds, chaos seeds, overload modes x seeds — as
// cell runs of the one grid runner (experiments/grid.hpp), which owns
// grid order, artifact stems, each cell's observability bundle and its
// metrics.json/trace.json, log capture, --jobs and the summary file.
//
// Each cell runs on its own Simulator and RNG streams (fig2/fig4 also
// write <stem>_flows.csv), so every artifact is byte-identical for
// every --jobs value, except trace.json where a span records wall-clock
// cost: simulator dispatch under trace_sim, and the hypervisor deploy
// target's `recompile` spans, which only fig2 runs (chaos and overload
// deploy through a FleetTarget; see obs/trace.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/chaos.hpp"
#include "experiments/fig2.hpp"
#include "experiments/fig4.hpp"
#include "experiments/grid.hpp"
#include "experiments/overload.hpp"
#include "trafficgen/adversary_source.hpp"

namespace qv::experiments {

// --- slugs (the grid axes' names in stems, summaries and CLIs) ------------

const char* fig2_scheme_slug(Fig2Scheme s);
std::vector<Fig2Scheme> fig2_all_schemes();

const char* fig4_scheme_slug(Fig4Scheme s);
std::vector<Fig4Scheme> fig4_all_schemes();

// --- fig2: schemes x seeds ------------------------------------------------

struct Fig2SweepConfig {
  Fig2Config base;  ///< scheme/seed/obs/flow_csv overridden per cell
  std::vector<Fig2Scheme> schemes = {Fig2Scheme::kQvisorAdapt};
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;  ///< 0 = hardware_concurrency, 1 = serial
  SweepObsOptions obs;
};

std::vector<SweepCell> run_fig2_sweep(const Fig2SweepConfig& sweep);

// --- fig4: schemes x loads x seeds ----------------------------------------

struct Fig4SweepConfig {
  Fig4Config base;  ///< from fig4_scaled_config() / fig4_paper_config()
  std::vector<Fig4Scheme> schemes = {Fig4Scheme::kQvisorPfabricOverEdf};
  std::vector<double> loads = {0.5};
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;
  SweepObsOptions obs;
};

std::vector<SweepCell> run_fig4_sweep(const Fig4SweepConfig& sweep);

// --- chaos: seeds ---------------------------------------------------------

struct ChaosSweepConfig {
  ChaosConfig base;  ///< seed/obs overridden per cell
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;
  SweepObsOptions obs;
};

std::vector<SweepCell> run_chaos_sweep(const ChaosSweepConfig& sweep);

// --- overload: modes x seeds ----------------------------------------------

struct OverloadSweepConfig {
  OverloadConfig base;  ///< mode/seed/obs overridden per cell
  std::vector<trafficgen::AdversaryMode> modes = {
      trafficgen::AdversaryMode::kFlooder};
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;
  SweepObsOptions obs;
};

std::vector<SweepCell> run_overload_sweep(const OverloadSweepConfig& sweep);

}  // namespace qv::experiments
