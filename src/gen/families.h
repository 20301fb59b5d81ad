// The generator families, declared once for every front end.
//
// mcr_gen and `mcr_pack gen` read a family's fields from flags; the
// solve service reads them from a request's "generator" spec
// (svc/graph_source.h). Both read this table, so one spec names one
// graph whichever way it arrives. Each front end checks the values it
// reads against a field's range and words its own faults.
#ifndef MCR_GEN_FAMILIES_H
#define MCR_GEN_FAMILIES_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace mcr::gen {

/// Field default meaning "twice the family's first field" (sprand's m = 2n).
inline constexpr std::int64_t kTwiceN = std::numeric_limits<std::int64_t>::min();

/// One integer a family reads: its key, accepted range and default.
struct Field {
  const char* name;
  std::int64_t lo;
  std::int64_t hi;
  std::int64_t fallback;  // or kTwiceN
};

struct Family {
  const char* name;
  /// Read, keyed and passed to make in this order.
  std::vector<Field> fields;
  Graph (*make)(const std::vector<std::int64_t>& values);
};

/// sprand, circuit, ring and torus.
[[nodiscard]] const std::vector<Family>& families();

/// The family called `name`; throws std::invalid_argument naming the
/// known families.
[[nodiscard]] const Family& find_family(std::string_view name);

/// Whether `family` reads a field called `name`.
[[nodiscard]] bool reads(const Family& family, std::string_view name);

/// The default of `field` once the fields before it hold `before`, or
/// nullopt when that default leaves the field's range: m = 2n for an n
/// above hi / 2, which is n's fault rather than m's.
[[nodiscard]] std::optional<std::int64_t> default_value(const Field& field,
                                                        const std::vector<std::int64_t>& before);

}  // namespace mcr::gen

#endif  // MCR_GEN_FAMILIES_H
