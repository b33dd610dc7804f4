#pragma once
///
/// \file scheme.hpp
/// \brief The aggregation schemes compared in the paper (section III-B).

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tram::core {

/// Who buffers, and at what level, on each side.
enum class Scheme {
  /// No aggregation: every item is its own message (baseline).
  None,
  /// Source worker keeps one buffer per destination *worker* (Fig. 4).
  /// SMP-unaware: w workers hold w-1 buffers each.
  WW,
  /// Source worker keeps one buffer per destination *process*; the
  /// receiving PE groups items by destination worker (Fig. 5).
  WPs,
  /// Source worker keeps one buffer per destination *process* and groups
  /// (counting-sorts) the items by destination worker before sending
  /// (Fig. 6); the receiver scatters pre-built segments.
  WsP,
  /// The whole source *process* shares one buffer per destination process;
  /// workers claim slots with atomics (Fig. 7).
  PP,
  /// Topological routing over a virtual 2-D process mesh: the source
  /// worker keeps one buffer per mesh *coordinate* (O(2*sqrt(N)) buffers
  /// instead of the direct schemes' O(N)); messages hop dimension by
  /// dimension and are re-aggregated at intermediates (src/route/).
  Mesh2D,
  /// Same, over a 3-D mesh: O(3*cbrt(N)) buffers, up to 3 hops.
  Mesh3D,
};

const char* to_string(Scheme s);
/// Name -> scheme, case-insensitive ("WPs", "wps" and "WPS" all parse).
std::optional<Scheme> parse_scheme(std::string_view name);

/// The paper's direct schemes, in the order its figures list them.
std::vector<Scheme> all_schemes();
/// The direct aggregating schemes (everything but None and the meshes).
std::vector<Scheme> aggregating_schemes();
/// The topologically routed schemes.
std::vector<Scheme> routed_schemes();

/// True for schemes routed over a virtual mesh of two or more dimensions
/// (multi-hop, re-aggregated at intermediates). TramDomain runs every
/// scheme; the direct ones are its 1-D case, where every ship is final.
inline bool is_routed(Scheme s) {
  return s == Scheme::Mesh2D || s == Scheme::Mesh3D;
}

/// Mesh dimensionality d of a routed scheme (0 for direct schemes).
inline int mesh_ndims(Scheme s) {
  switch (s) {
    case Scheme::Mesh2D: return 2;
    case Scheme::Mesh3D: return 3;
    default: return 0;
  }
}

/// True for schemes whose source-side buffers target processes (and whose
/// receiver must therefore route items to individual workers).
inline bool process_addressed(Scheme s) {
  return s == Scheme::WPs || s == Scheme::WsP || s == Scheme::PP;
}

/// True for schemes that share source-side buffers across a process.
inline bool shares_source_buffers(Scheme s) { return s == Scheme::PP; }

}  // namespace tram::core
