// mcr_pack — build, inspect, and verify .mcrpack graph containers.
//
//   mcr_pack build <input.dimacs> --out FILE.mcrpack
//   mcr_pack gen <sprand|circuit|ring|torus> [gen options] --out FILE.mcrpack
//   mcr_pack info FILE.mcrpack
//   mcr_pack verify FILE.mcrpack
//
// `build` packs an existing DIMACS file; `gen` packs a generated
// instance directly (same families and options as mcr_gen). `info`
// dumps the validated header and section table; `verify` just attaches
// (header + checksum + structural validation) and reports the result.
// See docs/STORAGE.md for the format.
//
// Exit codes: 0 = ok, 1 = error (including pack rejection), 2 = usage.
#include <iostream>

#include "cli.h"
#include "generate.h"
#include "graph/io.h"
#include "obs/build_info.h"
#include "store/format.h"
#include "store/pack_reader.h"
#include "store/pack_writer.h"

namespace {

using namespace mcr;

constexpr const char* kUsage =
    "usage: mcr_pack build <input.dimacs> --out FILE.mcrpack\n"
    "       mcr_pack gen <sprand|circuit|ring|torus> [options] --out FILE.mcrpack\n"
    "       mcr_pack info FILE.mcrpack\n"
    "       mcr_pack verify FILE.mcrpack\n";


void report_write(const std::string& out_path, const store::PackWriteInfo& info) {
  std::cerr << "wrote " << out_path << " (" << info.file_bytes << " bytes, fingerprint "
            << info.fingerprint << ", " << info.num_components << " components, "
            << info.num_cyclic << " cyclic)\n";
  std::cout << info.fingerprint << "\n";
}

const char* section_name(store::SectionId id) {
  using store::SectionId;
  switch (id) {
    case SectionId::kArcSrc: return "arc_src";
    case SectionId::kArcDst: return "arc_dst";
    case SectionId::kArcWeight: return "arc_weight";
    case SectionId::kArcTransit: return "arc_transit";
    case SectionId::kOutFirst: return "out_first";
    case SectionId::kOutArcs: return "out_arcs";
    case SectionId::kInFirst: return "in_first";
    case SectionId::kInArcs: return "in_arcs";
    case SectionId::kSccComponent: return "scc_component";
    case SectionId::kSccCyclic: return "scc_cyclic";
    case SectionId::kComponentMeta: return "component_meta";
    case SectionId::kCount: break;
  }
  return "?";
}

int do_info(const std::string& path) {
  const store::PackReader reader = store::PackReader::open(path);
  const store::PackHeader& h = reader.header();
  std::cout << "pack:          " << path << "\n"
            << "format:        v" << h.format_version << " (" << h.file_bytes
            << " bytes)\n"
            << "fingerprint:   " << reader.fingerprint_hex() << "\n"
            << "graph:         " << h.num_nodes << " nodes, " << h.num_arcs << " arcs\n"
            << "weights:       [" << h.min_weight << ", " << h.max_weight
            << "], total transit " << h.total_transit << "\n"
            << "condensation:  " << h.num_components << " components, " << h.num_cyclic
            << " cyclic\n"
            << "sections:\n";
  for (std::size_t i = 0; i < store::kSectionCount; ++i) {
    const store::SectionEntry& e = h.sections[i];
    std::cout << "  " << section_name(static_cast<store::SectionId>(i)) << ": offset "
              << e.offset << ", " << e.bytes << " bytes\n";
  }
  std::int64_t tiled = 0;
  for (const store::ComponentMeta& cm : reader.component_meta()) {
    if (cm.tile_hint > 0) ++tiled;
  }
  std::cout << "tile hints:    " << tiled << " components large enough for tiling\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcr;
  try {
    const cli::Options opt =
        cli::parse(argc, argv,
                   {"n", "m", "wmin", "wmax", "tmin", "tmax", "seed", "module",
                    "fanout", "rows", "cols", "out", "version"});
    if (opt.has("version")) {
      std::cout << obs::version_string("mcr_pack");
      return 0;
    }
    if (opt.positional.empty()) {
      std::cerr << kUsage;
      return 2;
    }
    const std::string& cmd = opt.positional[0];
    if (cmd == "build") {
      if (opt.positional.size() != 2 || !opt.has("out")) {
        std::cerr << kUsage;
        return 2;
      }
      const Graph g = load_dimacs(opt.positional[1]);
      report_write(opt.get("out"), store::write_pack(opt.get("out"), g));
      return 0;
    }
    if (cmd == "gen") {
      if (opt.positional.size() != 2 || !opt.has("out")) {
        std::cerr << kUsage;
        return 2;
      }
      const Graph g = cli::generate_graph(opt.positional[1], opt);
      report_write(opt.get("out"), store::write_pack(opt.get("out"), g));
      return 0;
    }
    if (cmd == "info") {
      if (opt.positional.size() != 2) {
        std::cerr << kUsage;
        return 2;
      }
      return do_info(opt.positional[1]);
    }
    if (cmd == "verify") {
      if (opt.positional.size() != 2) {
        std::cerr << kUsage;
        return 2;
      }
      const store::PackReader reader = store::PackReader::open(opt.positional[1]);
      std::cerr << "ok: " << opt.positional[1] << " (" << reader.file_bytes()
                << " bytes, fingerprint " << reader.fingerprint_hex() << ")\n";
      std::cout << reader.fingerprint_hex() << "\n";
      return 0;
    }
    std::cerr << kUsage;
    return 2;
  } catch (const cli::UsageError& e) {
    std::cerr << "mcr_pack: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mcr_pack: " << e.what() << "\n";
    return 1;
  }
}
