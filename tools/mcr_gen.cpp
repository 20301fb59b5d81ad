// mcr_gen — generate benchmark instances in the extended DIMACS format.
//
// The families and their fields are the table in gen/families.h, which
// the solve service's generator specs read too: the same fields build
// the same graph here and there. circuit's --fanout is the average
// out-degree in percent. A flag the chosen family does not read is a
// usage error, not silently ignored.
#include <fstream>
#include <iostream>

#include "cli.h"
#include "graph/io.h"
#include "obs/build_info.h"

int main(int argc, char** argv) {
  using namespace mcr;
  std::vector<cli::Flag> flags = cli::generator_flags();
  flags.push_back({"out", "FILE", "write the graph to FILE (default: stdout)"});
  flags.push_back({"version", "", "print build provenance and exit"});
  const std::string_view synopsis = "mcr_gen <sprand|circuit|ring|torus> [options]";
  try {
    const cli::Options opt = cli::parse(argc, argv, flags);
    if (opt.has("version")) {
      std::cout << obs::version_string("mcr_gen");
      return 0;
    }
    if (opt.positional.size() != 1) throw cli::UsageError("expected one family");
    const Graph g = cli::generate(opt.positional[0], opt);
    const std::string comment = "mcr_gen " + opt.positional[0] + " n=" +
                                std::to_string(g.num_nodes()) + " m=" +
                                std::to_string(g.num_arcs());
    if (opt.has("out")) {
      save_dimacs(opt.get("out"), g, comment);
      std::cerr << "wrote " << opt.get("out") << " (" << g.num_nodes() << " nodes, "
                << g.num_arcs() << " arcs)\n";
    } else {
      write_dimacs(std::cout, g, comment);
    }
    return 0;
  } catch (const cli::UsageError& e) {
    std::cerr << "mcr_gen: " << e.what() << "\n" << cli::usage(synopsis, flags);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_gen: " << e.what() << "\n";
    return 1;
  }
}
