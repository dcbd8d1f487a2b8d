// Reproduces the Section 5.1 table: average route distance per topology,
// asymptotic formula evaluated at P = 1024 (as the paper prints it) next to
// the exact mean over all ordered pairs computed by walking the actual
// deterministic routes of our topology library.
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "exp/sweep.hpp"
#include "net/topology.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace logp;
  // --threads N (0 = one per hardware thread) fans the exact O(P^2) route
  // walks over the shared ThreadPool; the per-source subtotals are
  // integers, so the table is byte-identical for any value.
  int threads = exp::threads_from_args(argc, argv);
  if (threads <= 0)
    threads = static_cast<int>(std::thread::hardware_concurrency());
  if (const int rc = exp::reject_unknown_flags(argc, argv, "[--threads N]"))
    return rc;
  std::cout << "== Section 5.1: average distance between nodes ==\n\n";

  struct Row {
    const char* paper_name;
    const char* formula;
    std::unique_ptr<net::Topology> topo;
  };
  std::vector<Row> rows;
  rows.push_back({"Hypercube", "log2(p)/2", net::make_hypercube(1024)});
  rows.push_back({"Butterfly", "log2(p)", net::make_butterfly(1024)});
  rows.push_back({"Fattree", "2*log4(p) - 2/3", net::make_fat_tree4(1024)});
  rows.push_back({"3d Torus", "3/4 * p^(1/3)", net::make_mesh3d(8, 16, 8, true)});
  rows.push_back({"3d Mesh", "p^(1/3)", net::make_mesh3d(8, 16, 8, false)});
  rows.push_back({"2d Torus", "1/2 * p^(1/2)", net::make_mesh2d(32, 32, true)});
  rows.push_back({"2d Mesh", "2/3 * p^(1/2)", net::make_mesh2d(32, 32, false)});

  util::TablePrinter tp({"Network", "formula", "formula @1024",
                         "exact (routed)", "paper"});
  const std::vector<const char*> paper = {"5", "10", "9.33", "7.5",
                                          "10",  "16", "21"};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    tp.add_row({r.paper_name, r.formula,
                util::fmt(net::formula_avg_distance(r.paper_name, 1024), 2),
                util::fmt(r.topo->average_distance(threads), 2),
                paper[i]});
  }
  tp.print(std::cout);

  std::cout << "\n(3D uses an 8x16x8 arrangement since 1024 is not a cube;\n"
               " formulas count ordered pairs including self, the exact\n"
               " column excludes self pairs — hence the small excess.)\n"
               "For configurations of practical interest the topologies\n"
               "differ by at most ~4x, and distance is a minor part of the\n"
               "total message time (see tab1_unloaded_time).\n";
  return 0;
}
