// rdcn_bench: final cost ledgers of the replay_1m cell at the default
// seed (42), one per result column in CSV order.  The ledgers are
// simulated statistics, so they repeat exactly on every machine and
// thread count; a change that moves one changes the algorithms'
// behaviour.  A mismatch report prints the observed ledgers in this form.
#pragma once

#include <vector>

#include "layers.hpp"

namespace rdcn::bench {

inline std::vector<Ledger> replay_goldens() {
  return {
      // {label, routing, reconfig, total}
      {"r_bma(b=4)", 2474134, 4989552, 7463686},
      {"r_bma(b=64)", 1440459, 1584300, 3024759},
      {"bma(b=4)", 2800373, 4580400, 7380773},
      {"bma(b=64)", 1456820, 955440, 2412260},
      {"so_bma(b=4)", 2711227, 12000, 2723227},
      {"so_bma(b=64)", 1279467, 191640, 1471107},
      {"greedy(b=4)", 3194304, 11940, 3206244},
      {"greedy(b=64)", 1668805, 191520, 1860325},
      {"oblivious(b=4)", 3907232, 0, 3907232},
  };
}

}  // namespace rdcn::bench
