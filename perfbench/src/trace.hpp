// In-memory span recorder of the traced run.
//
// Every thread that records gets its own buffer (no locking on the
// record path); buffers outlive their threads and are written to one
// binary file when the run ends.  summarize.py reads that file.
//
// A span is [start, end) on one thread, with a name, an optional parent
// span on the same thread, the OpId of the operation it serves (site 0
// when it serves none) and one free integer (a count the span carries,
// e.g. the sends of one broadcast).  Ids are unique per process.  A
// parent is emitted after its children (new_id() reserves its id), and
// children of one parent do not overlap: summarize.py computes self
// times in one pass relying on both.
#pragma once

#include <cstdint>
#include <string>

#include "util/types.hpp"

namespace perfbench::trace {

/// Span names.  The prefix before the first '.' is the layer.
enum class Name : std::uint16_t {
  kSimRecord,            // sim: one trace recording
  kEngineParse,          // engine: NotifierSite::parse_uplink
  kEngineApply,          // engine: NotifierSite::apply_uplink
  kEnginePreBroadcast,   // engine: apply entry -> first SendFn call
  kEngineFanout,         // engine: first -> last SendFn call
  kEnginePostBroadcast,  // engine: last SendFn call -> apply return
  kEngineClientApply,    // engine: ClientSite::on_center_message
  kEngineClientGenerate, // engine: ClientSite::insert/erase (with submit)
  kEngineNotifierReceive,// engine: NotifierSite::on_client_message (recording)
  kRuntimeSubmit,        // runtime: NotifierPipeline::submit
  kRuntimeDrain,         // runtime: NotifierPipeline::drain
  kRuntimeNotifier,      // runtime (wait): submit return -> last hand-off
  kRuntimeInboxWait,     // runtime (wait): hand-off -> replica apply
  kLoadGenerate,         // load: one due op, generation through submit
  kLoadLate,             // load (wait): due time -> generation start
  kLoadDeliver,          // load: one egress frame routed to its replica
  kBenchSerialReplay,    // bench: one serial NotifierSite replay
  kBenchPipelineReplay,  // bench: one pipeline replay, submit to drain
  kBenchEgress,          // bench: one EgressFn call
  kBenchLivePhase,       // bench: the traced open-loop phase
  kCount,
};

/// Turns recording on or off; nothing is recorded while off.  Toggle
/// only while no other thread records.
void set_enabled(bool on);
bool enabled();

/// Allocates a span id, for a parent that is emitted after its children.
std::uint64_t new_id();

/// Records one finished span on the calling thread's buffer.
void emit(std::uint64_t id, Name name, std::uint64_t parent,
          std::int64_t start_ns, std::int64_t end_ns, ccvc::OpId op = {},
          std::uint64_t value = 0);

/// Shorthand: allocates the id and records; returns the id.
inline std::uint64_t emit(Name name, std::uint64_t parent,
                          std::int64_t start_ns, std::int64_t end_ns,
                          ccvc::OpId op = {}, std::uint64_t value = 0) {
  const std::uint64_t id = new_id();
  emit(id, name, parent, start_ns, end_ns, op, value);
  return id;
}

/// Writes every buffer to `path`; returns the number of spans written.
/// Call once every recording thread has been joined.
std::uint64_t write(const std::string& path);

}  // namespace perfbench::trace
