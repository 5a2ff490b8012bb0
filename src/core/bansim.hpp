// Umbrella public header of the BAN simulation library.
//
// Pulls in the pieces a downstream user needs to (a) build and run a Body
// Area Network of OS-based sensor nodes, (b) extract per-component energy
// figures, and (c) reproduce the paper's validation experiments.
#pragma once

#include "core/ban_network.hpp"        // BanNetwork, BanConfig, SensorNode
#include "core/experiment.hpp"         // run_scenario, validation_row
#include "core/fidelity.hpp"           // Fidelity
#include "core/paper_experiments.hpp"  // table1..table4, figure4
#include "core/population.hpp"         // PopulationGenerator, run_patient
#include "core/timeline.hpp"           // render_timeline
#include "energy/energy_report.hpp"    // tables / CSV rendering
#include "mac/tdma_config.hpp"         // TdmaConfig
#include "sim/time.hpp"                // Duration / TimePoint literals
