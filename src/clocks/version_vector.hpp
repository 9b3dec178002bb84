// Full N-element vector clocks (Fidge 1988 / Mattern 1989).
//
// This is both (a) the baseline timestamping scheme the paper compresses
// away ("most group editors have used a full vector clock of N elements",
// §3.1), and (b) the ground-truth causality oracle used by the simulator
// to validate every verdict the compressed scheme produces.
//
// Index convention follows the paper: element i counts events of site i.
// In the star system the vector has N+1 entries (sites 0..N, 0 being the
// notifier); in mesh baselines it has N entries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"
#include "util/varint.hpp"

namespace ccvc::clocks {

/// Result of comparing two vector timestamps.
enum class Order {
  kEqual,       ///< identical vectors
  kBefore,      ///< lhs happened-before rhs
  kAfter,       ///< rhs happened-before lhs
  kConcurrent,  ///< neither dominates
};

const char* to_string(Order o);

/// A fixed-width vector clock over `size()` sites.
class VersionVector {
 public:
  VersionVector() = default;
  explicit VersionVector(std::size_t num_sites) : v_(num_sites, 0) {}
  explicit VersionVector(std::vector<std::uint64_t> values)
      : v_(std::move(values)) {}

  std::size_t size() const { return v_.size(); }
  std::uint64_t operator[](std::size_t i) const { return v_[i]; }

  /// Advances this site's own component by one (a local event).
  void tick(SiteId site);

  /// Component-wise maximum with `other` (executing a remote event whose
  /// timestamp is `other`).  Sizes must match.
  void merge(const VersionVector& other);

  /// Raises component `site` to `value` if it is currently lower; returns
  /// true if the component changed.  Used by differential protocols (SK)
  /// that receive single updated components rather than whole vectors.
  bool merge_component(SiteId site, std::uint64_t value);

  /// Appends zero components until the clock spans `new_size` sites —
  /// dynamic membership support (late joiners get fresh components).
  void grow(std::size_t new_size);

  /// Sum of all components — used by the notifier compression (paper
  /// eq. 1) and by total-order tie-breaking.
  std::uint64_t sum() const;

  /// Sum of all components except `site` — the Σ_{j≠site} of eq. (1)/(7).
  std::uint64_t sum_except(SiteId site) const;

  /// Full pointwise comparison.
  Order compare(const VersionVector& other) const;

  /// True iff this ≤ other pointwise and this ≠ other.
  bool happened_before(const VersionVector& other) const {
    return compare(other) == Order::kBefore;
  }

  bool concurrent_with(const VersionVector& other) const {
    return compare(other) == Order::kConcurrent;
  }

  /// Event-timestamp concurrency test of paper formula (3): given ops
  /// stamped at generation by ticked clocks of their origin sites,
  /// Oa ∥ Ob  ⟺  Ta[x] > Tb[x] ∧ Tb[y] > Ta[y]  (x, y = origins).
  static bool concurrent_by_origin(const VersionVector& ta, SiteId x,
                                   const VersionVector& tb, SiteId y);

  /// Wire encoding: uvarint count followed by uvarint components.  This
  /// is what a "full vector timestamp" costs on the wire in E3.
  void encode(util::ByteSink& sink) const;
  static VersionVector decode(util::ByteSource& src);

  /// Encoded size in bytes without materializing a buffer.
  std::size_t encoded_size() const;

  /// "[a,b,c]" rendering used by scenario traces.
  std::string str() const;

  friend bool operator==(const VersionVector&, const VersionVector&) = default;

 private:
  std::vector<std::uint64_t> v_;
};

}  // namespace ccvc::clocks
