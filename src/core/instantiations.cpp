/// Explicit instantiations of the aggregation engine for common item
/// types: catches template compile errors at library build time and speeds
/// up dependent TUs.
#include <cstdint>

#include "core/tram.hpp"
#include "route/routed_domain.hpp"

namespace tram::core {

template class TramDomain<std::uint32_t>;
template class TramDomain<std::uint64_t>;

}  // namespace tram::core

namespace tram::route {

template class RoutedDomain<std::uint32_t>;
template class RoutedDomain<std::uint64_t>;

}  // namespace tram::route
