// Table 2: the N:8 patterns a TTC-VEGETA engine (native 1:8/2:8/4:8)
// reaches with at most two TASD terms.
#include <iostream>

#include "common/table.hpp"
#include "core/series_enum.hpp"

using namespace tasd;

int main() {
  print_banner("Table 2: supported sparse patterns with TTC-VEGETA-M8");

  const std::vector<sparse::NMPattern> native{
      sparse::NMPattern(1, 8), sparse::NMPattern(2, 8),
      sparse::NMPattern(4, 8)};

  // Returns fresh strings: assigning the literals to one reused string
  // trips a GCC 12 -Wrestrict false positive.
  const auto series_for = [&](int n) -> std::string {
    if (n == 8) return "Dense";
    if (auto cfg = config_for_effective_pattern(native, 2, n, 8))
      return cfg->str();
    return "-";
  };

  TextTable t;
  t.header({"effective pattern", "TASD series"});
  for (int n = 1; n <= 8; ++n) {
    t.row({std::to_string(n) + ":8", series_for(n)});
  }
  t.print();

  std::cout << "\nPaper check: 3:8 = 2:8+1:8, 5:8 = 4:8+1:8, 6:8 = "
               "4:8+2:8, 7:8 unreachable;\n7 of 8 N:8 patterns supported "
               "vs 3 native ones.\n";
  return 0;
}
