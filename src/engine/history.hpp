// History-buffer entry types (§2.3: "every site needs to maintain a
// History Buffer (HB) for saving executed operations").
//
// Client entries carry the 2-element propagation timestamp they arrived
// or were generated with (§3.3 "a buffered operation is timestamped with
// its original 2-element propagation timestamp").  Notifier entries are
// "timestamped with the current N-element state vector value" (§3.3),
// which is implied by their commit order (SV_0 only ever adds 1 at the
// origin): the notifier derives it, and materializes it only for
// checkpoints (StampedNotifierHbEntry).
#pragma once

#include <vector>

#include "clocks/compressed_sv.hpp"
#include "clocks/version_vector.hpp"
#include "ot/text_op.hpp"
#include "util/types.hpp"

namespace ccvc::engine {

struct ClientHbEntry {
  OpId id;
  clocks::HbSource source = clocks::HbSource::kLocal;
  clocks::CompressedSv stamp;     // always maintained
  clocks::VersionVector full;     // populated in kFullVector mode only
  ot::OpList executed;            // the form applied to the local document

  friend bool operator==(const ClientHbEntry&, const ClientHbEntry&) =
      default;
};

/// An HB_0 entry as the notifier keeps it: one entry of its commit log.
struct NotifierHbEntry {
  OpId id;
  SiteId origin = 0;
  SiteId width = 0;               // sites in the session at execution
  ot::OpList executed;            // transformed form O' (server context)

  friend bool operator==(const NotifierHbEntry&, const NotifierHbEntry&) =
      default;
};

/// An HB_0 entry with its stamp: the 0xD2 checkpoint's NotifierHbEntry.
struct StampedNotifierHbEntry {
  OpId id;
  SiteId origin = 0;
  clocks::VersionVector stamp;    // full SV_0 value after execution
  ot::OpList executed;

  friend bool operator==(const StampedNotifierHbEntry&,
                         const StampedNotifierHbEntry&) = default;
};

}  // namespace ccvc::engine
