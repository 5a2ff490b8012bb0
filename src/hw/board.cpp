#include "hw/board.hpp"

namespace bansim::hw {

Board::Board(sim::SimContext& context, phy::Channel& channel,
             std::string node_name, const BoardParams& params,
             double clock_skew)
    : name_{std::move(node_name)},
      mcu_{context, name_, params.mcu, clock_skew},
      radio_{context, channel, name_, params.radio, params.phy},
      adc_{context.simulator, params.adc},
      asic_{context.simulator, params.asic},
      timer_{context.simulator, mcu_} {
  // The ADC samples whatever the ASIC front-end presents.
  adc_.set_input([this](std::uint32_t adc_channel) {
    return asic_.read_channel(adc_channel);
  });
}

std::vector<energy::ComponentEnergy> Board::breakdown(sim::TimePoint now) const {
  std::vector<energy::ComponentEnergy> rows;

  const auto collect = [&](const energy::EnergyMeter& m) {
    energy::ComponentEnergy row;
    row.component = m.component();
    row.joules = m.total_energy(now);
    for (std::size_t s = 0; s < m.num_states(); ++s) {
      row.per_state.emplace_back(m.state(s).name,
                                 m.energy_in(static_cast<int>(s), now));
    }
    rows.push_back(std::move(row));
  };

  collect(mcu_.meter());
  collect(radio_.meter());

  energy::ComponentEnergy asic_row;
  asic_row.component = "asic";
  asic_row.joules = asic_.energy(now);
  asic_row.per_state.emplace_back("constant", asic_row.joules);
  rows.push_back(std::move(asic_row));

  return rows;
}

}  // namespace bansim::hw
