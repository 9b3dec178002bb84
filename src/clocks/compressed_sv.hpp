// The paper's contribution: 2-element compressed state vectors (§3) and
// the concurrency-checking formulas built on them (§4).
//
// Terminology and numbering follow the paper exactly:
//
//  * Every collaborating site i ≠ 0 keeps a 2-element state vector SV_i:
//    SV_i[1] counts operations received from the notifier (site 0) and
//    SV_i[2] counts operations generated locally.  -> ClientClock.
//  * The notifier keeps a full N-element state vector SV_0 where SV_0[i]
//    counts operations received from site i.  SV_0 is *never shipped*;
//    it is compressed per destination with eq. (1)-(2). -> NotifierClock.
//  * Concurrency checks: eq. (4)/(5) at a client, eq. (6)/(7) at the
//    notifier.  Both the general and the FIFO-simplified forms are
//    provided; tests assert they agree whenever the general form's
//    preconditions hold.
//
// Index convention: the paper indexes vectors from 1.  We expose named
// fields (from_center == paper [1], from_site == paper [2]) plus an
// `at(k)` accessor taking the paper's 1-based index so the §5 worked
// example can be transliterated verbatim in tests.
#pragma once

#include <cstdint>
#include <string_view>

#include "clocks/version_vector.hpp"
#include "util/types.hpp"
#include "util/varint.hpp"

namespace ccvc::clocks {

/// A 2-element compressed state vector / operation timestamp.
///
/// For traffic in either direction between the notifier and site i, the
/// first element counts operations flowing notifier->i and the second
/// counts operations flowing i->notifier:
///  * client-stamped op O:  T[1] = ops received from site 0,
///                          T[2] = ops generated at site i (incl. O);
///  * notifier-stamped op O' for destination i (eq. 1-2):
///                          T[1] = Σ_{j≠i} SV_0[j],  T[2] = SV_0[i].
struct CompressedSv {
  std::uint64_t from_center = 0;  ///< paper's element [1]
  std::uint64_t from_site = 0;    ///< paper's element [2]

  /// Paper-style 1-based element access (k ∈ {1, 2}).
  std::uint64_t at(int k) const;

  void encode(util::ByteSink& sink) const;
  static CompressedSv decode(util::ByteSource& src);
  std::size_t encoded_size() const;

  /// "[a,b]" rendering matching Fig. 3 annotations.
  std::string str() const;

  friend bool operator==(const CompressedSv&, const CompressedSv&) = default;
};

/// State-vector maintenance at a collaborating site i ≠ 0 (§3.2).
class ClientClock {
 public:
  ClientClock() = default;

  /// A late joiner starts with a document snapshot that already embodies
  /// `received_from_center` center operations, so its SV_i[1] starts
  /// there instead of 0.
  explicit ClientClock(std::uint64_t received_from_center)
      : sv_{received_from_center, 0} {}

  /// Restores a checkpointed clock verbatim.
  explicit ClientClock(const CompressedSv& sv) : sv_(sv) {}

  /// Rule 2: after executing an operation propagated from site 0.
  void on_center_op_executed() { ++sv_.from_center; }

  /// Rule 3: after executing a local operation.
  void on_local_op_executed() { ++sv_.from_site; }

  /// Current SV_i — used verbatim to stamp a just-executed local
  /// operation (§3.3: "the current value of the 2-element state vector
  /// is directly used to timestamp O").
  const CompressedSv& stamp() const { return sv_; }

 private:
  CompressedSv sv_;
};

/// State-vector maintenance at the notifier, site 0 (§3.2), including the
/// per-destination compression of eq. (1)-(2).
///
/// Eq. (1) naively costs O(N) per propagated message; we maintain the
/// running total Σ_j SV_0[j] so each destination stamp is O(1).  This is
/// the "running-sum" design decision benchmarked in E5.
class NotifierClock {
 public:
  /// Clock over collaborating sites 1..num_sites (index 0 is unused and
  /// stays 0, so full() matches the paper's site-indexed vectors).
  explicit NotifierClock(std::size_t num_sites);

  /// Restores a checkpointed clock verbatim (recomputes the running
  /// total from the vector).
  explicit NotifierClock(VersionVector sv0);

  std::size_t num_sites() const { return sv0_.size() - 1; }

  /// Registers a late-joining site and returns its id.  The new
  /// component starts at 0.
  SiteId add_site();

  /// Rule 2: after executing an operation received from `site`.
  void on_op_from(SiteId site);

  /// Eq. (1)-(2): the 2-element stamp for a message propagated to
  /// destination site `dest`.  O(1).
  CompressedSv stamp_for(SiteId dest) const;

  /// Current full SV_0 — used to timestamp operations buffered in HB_0
  /// (§3.3 "timestamping buffered operations").
  const VersionVector& full() const { return sv0_; }

  std::uint64_t total() const { return total_; }
  std::uint64_t from(SiteId site) const;

 private:
  VersionVector sv0_;        // index = site id; [0] unused
  std::uint64_t total_ = 0;  // running Σ_j SV_0[j]
};

/// Where a history-buffer entry at a client came from — determines the
/// index y in formulas (4)/(5).
enum class HbSource : std::uint8_t {
  kFromCenter,  ///< y = 1: propagated from site 0
  kLocal,       ///< y = 2: generated at this site
};

/// Single-token mutations of the concurrency formulas, used by the model
/// checker's self-validation suite (src/analysis/explorer.hpp): a
/// checker that cannot find a counterexample against a deliberately
/// broken formula proves nothing about the intact one.  Each mutation
/// flips exactly one comparison (or drops one conjunct) in one formula;
/// the functions below consult the process-global setting.
///
/// Deliberately absent: mutations of formula (4)'s *first* conjunct.
/// Under star-topology FIFO delivery that conjunct is always true when
/// the check runs (that is the paper's (4)→(5) argument), so no reachable
/// schedule can distinguish it — the checker would rightly find nothing.
enum class FormulaMutation : std::uint8_t {
  kNone,
  kF4GeqSecond,   ///< (4): second conjunct `>` → `>=`
  kF5Geq,         ///< (5): `>` → `>=`
  kF6GeqSum,      ///< (6): Σ-branch `>` → `>=`
  kF7Geq,         ///< (7): `>` → `>=`
  kF7DropOrigin,  ///< (7): drop the `x ≠ y` conjunct
};

/// Sets/reads the process-global mutation (single-threaded simulator;
/// kNone in every production path).
void set_formula_mutation(FormulaMutation m);
FormulaMutation formula_mutation();

/// Stable names for scenario scripts and CLI flags ("none", "f5-geq",
/// "f7-drop-origin", ...).
std::string_view to_string(FormulaMutation m);

/// Parses a mutation name; returns false (and leaves `out` untouched) on
/// an unknown name.
bool parse_formula_mutation(std::string_view name, FormulaMutation& out);

/// RAII guard: installs a mutation for a scope, restores the previous
/// one on exit.  The explorer wraps each self-validation run in one so a
/// thrown ContractViolation cannot leak a broken formula into the next.
class ScopedFormulaMutation {
 public:
  explicit ScopedFormulaMutation(FormulaMutation m)
      : previous_(formula_mutation()) {
    set_formula_mutation(m);
  }
  ~ScopedFormulaMutation() { set_formula_mutation(previous_); }
  ScopedFormulaMutation(const ScopedFormulaMutation&) = delete;
  ScopedFormulaMutation& operator=(const ScopedFormulaMutation&) = delete;

 private:
  FormulaMutation previous_;
};

/// Formula (4) — general concurrency check at a client site between an
/// incoming center operation Oa and a buffered operation Ob:
///   Oa ∥ Ob ⟺ T_Oa[1] > T_Ob[1] ∧ T_Ob[y] > T_Oa[y].
bool concurrent_at_client_full(const CompressedSv& t_oa,
                               const CompressedSv& t_ob, HbSource src_ob);

/// Formula (5) — the FIFO-simplified check actually used on-line:
///   Oa ∥ Ob ⟺ T_Ob[y] > T_Oa[y].
/// Valid only because star-topology FIFO delivery guarantees Oa ↛ Ob for
/// every already-buffered Ob.
bool concurrent_at_client(const CompressedSv& t_oa, const CompressedSv& t_ob,
                          HbSource src_ob);

/// Formula (6) — general concurrency check at the notifier between an
/// incoming op Oa from site x (2-element stamp) and a buffered op Ob
/// originated at site y (full-vector stamp).
bool concurrent_at_notifier_full(const CompressedSv& t_oa, SiteId x,
                                 const VersionVector& t_ob, SiteId y);

/// Formula (7) — the FIFO-simplified notifier check:
///   Oa ∥ Ob ⟺ x ≠ y ∧ Σ_{j≠x} T_Ob[j] > T_Oa[1].
bool concurrent_at_notifier(const CompressedSv& t_oa, SiteId x,
                            const VersionVector& t_ob, SiteId y);

/// O(1) variant of formula (7) given the precomputed total Σ_j T_Ob[j]
/// and the single component T_Ob[x].
bool concurrent_at_notifier_o1(const CompressedSv& t_oa, SiteId x,
                               std::uint64_t t_ob_sum, std::uint64_t t_ob_x,
                               SiteId y);

}  // namespace ccvc::clocks
