#pragma once
///
/// \file routed_domain.hpp
/// \brief Multi-hop aggregation over a virtual mesh (Scheme::Mesh2D/3D).
///
/// The mesh schemes run on the one aggregation engine, core::TramDomain
/// (see core/tram.hpp for the routed message lifecycle). RoutedDomain is
/// the same engine under its own name, so code that picks per-layer
/// names or counters by domain type can tell the routed configuration
/// apart from the direct one.

#include "core/tram.hpp"

namespace tram::route {

template <typename Item, bool kTrackLatency = false>
  requires std::is_trivially_copyable_v<Item>
class RoutedDomain : public core::TramDomain<Item, kTrackLatency> {
 public:
  using core::TramDomain<Item, kTrackLatency>::TramDomain;
};

}  // namespace tram::route
