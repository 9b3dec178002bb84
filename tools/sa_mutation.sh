#!/usr/bin/env sh
# Mutation corpus for `ccvc_sa --check`: the analyzer gate must pass on
# a faithful copy of the tree and FAIL — with exactly the expected
# finding(s) — when one known-bad pattern per checker class is seeded:
#
#   1. unguarded decoded count reaching an allocator   (wire-taint)
#   2. decode path raising ContractViolation     (exception-discipline)
#   3. plain global written on the hot path           (single-writer)
#   4. dead entry in the suppression baseline       (engine liveness)
#   5. transform-only state written from the producer closure
#                                                    (single-writer)
#   6. atomic op with a defaulted memory order       (atomics-order)
#   7. memory order changed under a stale ATOMICS.md (atomics drift)
#   8. allocation seeded into the submit hot path + stale HOTPATH.md
#                                                  (hot-path-budget)
#   9. client inboxes made bounded: the documented 4-edge cycle closes
#      and must surface as a blocking-graph cycle finding
#  10. a spin seeded under drain_mu_ (hold-and-wait) — lock-order
#      inversion closing a control/transform/egress cycle
#  11. commit()'s drain notify deleted: a predicate write without a
#      notify on the cv                       (liveness-discipline)
#  12. a flag spin whose flag nothing writes  (liveness-discipline)
#  13. stale BLOCKING.md under an unchanged tree   (blocking drift)
#
# This is the self-validation the framework's approximations lean on:
# a lexer or extractor regression that blinds a checker turns up here
# as "mutation accepted", not as silent lost coverage.
# Usage: sa_mutation.sh <repo-root> [python3]
set -eu

ROOT=$1
PY=${2:-python3}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

stage() {
  rm -rf "$TMP/src" "$TMP/docs" "$TMP/tools"
  mkdir -p "$TMP/docs" "$TMP/tools"
  cp -r "$ROOT/src" "$TMP/src"
  cp -r "$ROOT/tools/ccvc_sa" "$TMP/tools/ccvc_sa"
  cp "$ROOT/docs/schema.json" "$TMP/docs/schema.json"
  cp "$ROOT/docs/ATOMICS.md" "$TMP/docs/ATOMICS.md"
  cp "$ROOT/docs/HOTPATH.md" "$TMP/docs/HOTPATH.md"
  cp "$ROOT/docs/BLOCKING.md" "$TMP/docs/BLOCKING.md"
}

run_sa() {
  "$PY" "$TMP/tools/ccvc_sa" --check --root "$TMP" > "$TMP/out.txt" 2>&1 \
    && status=0 || status=$?
}

# expect_findings <label> <count> <must-appear-regex>...
# The gate must fail with exactly <count> findings/errors, and every
# given regex must match — nothing extra dragged in by the seed.
expect_findings() {
  label=$1; want=$2; shift 2
  run_sa
  if [ "$status" -eq 0 ]; then
    echo "FAIL: gate accepted mutation: $label" >&2
    cat "$TMP/out.txt" >&2
    exit 1
  fi
  for rx in "$@"; do
    if ! grep -q "$rx" "$TMP/out.txt"; then
      echo "FAIL: mutation $label failed without expected finding ($rx):" >&2
      cat "$TMP/out.txt" >&2
      exit 1
    fi
  done
  n_findings=$(grep -c '^src/\|^docs/\|^error:' "$TMP/out.txt" || true)
  if [ "$n_findings" -ne "$want" ]; then
    echo "FAIL: mutation $label produced $n_findings findings," \
         "want exactly $want:" >&2
    cat "$TMP/out.txt" >&2
    exit 1
  fi
  echo "ok: mutation rejected with its expected finding(s): $label"
}

# Control A: the faithful copy passes.
stage
run_sa
if [ "$status" -ne 0 ]; then
  echo "FAIL: gate rejects the clean tree:" >&2
  cat "$TMP/out.txt" >&2
  exit 1
fi
echo "ok: clean tree passes the gate"

# Control B: every registered checker also passes standalone (--checker
# scoping must not break a checker's own preconditions, e.g. a doc gate
# reading a file the full run would have validated first).
for ck in $("$PY" "$TMP/tools/ccvc_sa" --list | cut -d: -f1); do
  if ! "$PY" "$TMP/tools/ccvc_sa" --check --root "$TMP" --checker "$ck" \
      > "$TMP/out.txt" 2>&1; then
    echo "FAIL: checker $ck rejects the clean tree standalone:" >&2
    cat "$TMP/out.txt" >&2
    exit 1
  fi
done
echo "ok: all checkers pass standalone on the clean tree"

# Mutation 1 (wire-taint): a decoded count drives reserve() unguarded.
stage
cat >> "$TMP/src/engine/snapshot.cpp" <<'EOF'
namespace ccvc::engine {
void sa_mutation_unguarded(util::ByteSource& src, std::vector<int>& out) {
  const std::uint64_t n = src.get_uvarint();
  out.reserve(n);
}
}  // namespace ccvc::engine
EOF
expect_findings "unguarded decoded count" 1 \
  "wire-taint.*reserve in.*sa_mutation_unguarded"

# Mutation 2 (exception-discipline): a decode rejection flips to
# ContractViolation.
stage
sed 's/throw util::DecodeError("not a notifier checkpoint bundle")/throw ContractViolation("not a notifier checkpoint bundle")/' \
  "$TMP/src/engine/snapshot.cpp" > "$TMP/src/engine/snapshot.cpp.new"
mv "$TMP/src/engine/snapshot.cpp.new" "$TMP/src/engine/snapshot.cpp"
expect_findings "decode path throwing ContractViolation" 1 \
  "exception-discipline.*decode_notifier_bundle.*ContractViolation"

# Mutation 3 (single-writer): a plain mutable global written from a
# delivery root, where one instance serves every thread.
stage
sed 's/void NotifierSite::on_client_message(SiteId from, const net::Payload\& bytes) {/std::uint64_t g_sa_mutation_total = 0;\nvoid NotifierSite::on_client_message(SiteId from, const net::Payload\& bytes) {\n  ++g_sa_mutation_total;/' \
  "$TMP/src/engine/notifier_site.cpp" > "$TMP/src/engine/notifier_site.cpp.new"
mv "$TMP/src/engine/notifier_site.cpp.new" "$TMP/src/engine/notifier_site.cpp"
if ! grep -q g_sa_mutation_total "$TMP/src/engine/notifier_site.cpp"; then
  echo "FAIL: mutation 3 seed did not apply (on_client_message moved?)" >&2
  exit 1
fi
expect_findings "plain global written on the hot path" 1 \
  "single-writer.*g_sa_mutation_total"

# Mutation 4 (suppression liveness): a baseline entry matching nothing.
stage
printf 'wire-taint|src/engine/got.cpp|taint:*bogus*\n' \
  >> "$TMP/tools/ccvc_sa/baseline.txt"
expect_findings "dead suppression entry" 1 \
  "error: dead suppression.*bogus"

# Mutation 5 (single-writer): submit() starts flushing assemblers —
# transform-owned BatchAssembler state (frame_) gains a second, and
# concurrent, writing thread closure.
stage
sed 's/engine::NotifierSite::parse_uplink(from, bytes, cfg_);/engine::NotifierSite::parse_uplink(from, bytes, cfg_);\n  if (from == 0 \&\& !assemblers_[0].empty()) assemblers_[0].flush();/' \
  "$TMP/src/runtime/pipeline.cpp" > "$TMP/src/runtime/pipeline.cpp.new"
mv "$TMP/src/runtime/pipeline.cpp.new" "$TMP/src/runtime/pipeline.cpp"
if ! grep -q 'assemblers_\[0\].flush' "$TMP/src/runtime/pipeline.cpp"; then
  echo "FAIL: mutation 5 seed did not apply (submit moved?)" >&2
  exit 1
fi
expect_findings "transform state written from producer closure" 1 \
  "single-writer.*frame_.*thread closures"

# Mutation 6 (atomics-order): an atomic op with the order defaulted to
# seq_cst instead of spelled out.
stage
cat >> "$TMP/src/runtime/pipeline.cpp" <<'EOF'
namespace ccvc::runtime {
std::atomic<int> g_sa_mutation_flag{0};
void sa_mutation_defaulted() { g_sa_mutation_flag.store(1); }
}  // namespace ccvc::runtime
EOF
expect_findings "defaulted memory order" 1 \
  "atomics-order.*g_sa_mutation_flag.store.*no explicit memory_order"

# Mutation 7 (atomics drift): a memory order changes in code while the
# committed ATOMICS.md still documents the old one.
stage
sed 's/committed_.fetch_add(1, std::memory_order_acq_rel)/committed_.fetch_add(1, std::memory_order_relaxed)/' \
  "$TMP/src/runtime/pipeline.cpp" > "$TMP/src/runtime/pipeline.cpp.new"
mv "$TMP/src/runtime/pipeline.cpp.new" "$TMP/src/runtime/pipeline.cpp"
if ! grep -q 'committed_.fetch_add(1, std::memory_order_relaxed)' \
    "$TMP/src/runtime/pipeline.cpp"; then
  echo "FAIL: mutation 7 seed did not apply (commit moved?)" >&2
  exit 1
fi
expect_findings "order changed under stale ATOMICS.md" 1 \
  "atomics-order.*ATOMICS.md does not match"

# Mutation 8 (hot-path-budget): an allocation seeded into submit() —
# both the allocation finding and the stale-HOTPATH.md drift must fire.
stage
sed 's/CCVC_METRIC_COUNT("runtime.ingress.submitted", 1);/bytes.push_back(0);\n  CCVC_METRIC_COUNT("runtime.ingress.submitted", 1);/' \
  "$TMP/src/runtime/pipeline.cpp" > "$TMP/src/runtime/pipeline.cpp.new"
mv "$TMP/src/runtime/pipeline.cpp.new" "$TMP/src/runtime/pipeline.cpp"
if ! grep -q 'bytes.push_back(0);' "$TMP/src/runtime/pipeline.cpp"; then
  echo "FAIL: mutation 8 seed did not apply (submit moved?)" >&2
  exit 1
fi
expect_findings "allocation on the submit hot path" 2 \
  "hot-path-budget.*submit.*bytes.push_back" \
  "hot-path-budget.*HOTPATH.md does not match"

# Mutation 9 (blocking-graph, the headline case): client inboxes made
# bounded.  The push side gains a capacity wait, which (a) closes the
# documented client → rings → egress → inbox cycle, (b) violates the
# egress edge-absence assertion, (c) consults no stop flag, and (d)
# leaves the committed BLOCKING.md stale.
stage
sed 's/frames.push_back(std::move(frame));/Backoff bo;\n    while (frames.size() >= 8) bo.pause();\n    frames.push_back(std::move(frame));/' \
  "$TMP/src/runtime/threaded_star.cpp" > "$TMP/src/runtime/threaded_star.cpp.new"
mv "$TMP/src/runtime/threaded_star.cpp.new" "$TMP/src/runtime/threaded_star.cpp"
if ! grep -q 'frames.size() >= 8' "$TMP/src/runtime/threaded_star.cpp"; then
  echo "FAIL: mutation 9 seed did not apply (Inbox::push moved?)" >&2
  exit 1
fi
expect_findings "bounded client inboxes close the 4-edge cycle" 4 \
  "blocking-graph.*blocking cycle among thread closures" \
  "blocking-graph.*egress.*closure a capacity wait" \
  "liveness-discipline.*consults no termination flag" \
  "blocking-graph.*BLOCKING.md does not match"

# Mutation 10 (blocking-graph, hold-and-wait): a spin seeded under
# drain_mu_ in notify_drain() — the mutex is now held across a wait, so
# its other acquirers (drain on control) become wait-for targets and
# the control → transform/egress cv edges close into a cycle.
stage
sed 's/const std::lock_guard<std::mutex> lock(drain_mu_);/const std::lock_guard<std::mutex> lock(drain_mu_);\n    Backoff hb;\n    while (egress_inflight_.load(std::memory_order_acquire) != 0) hb.pause();/' \
  "$TMP/src/runtime/pipeline.cpp" > "$TMP/src/runtime/pipeline.cpp.new"
mv "$TMP/src/runtime/pipeline.cpp.new" "$TMP/src/runtime/pipeline.cpp"
if ! grep -q 'Backoff hb;' "$TMP/src/runtime/pipeline.cpp"; then
  echo "FAIL: mutation 10 seed did not apply (notify_drain moved?)" >&2
  exit 1
fi
# Three findings: the cycle, the stale BLOCKING.md, and — because the
# seeded spin is itself a new atomic load — a stale ATOMICS.md.
expect_findings "hold-and-wait under drain_mu_ closes a cycle" 3 \
  "blocking-graph.*blocking cycle among thread closures" \
  "blocking-graph.*BLOCKING.md does not match" \
  "atomics-order.*ATOMICS.md does not match"

# Mutation 11 (liveness-discipline): commit()'s drain notify deleted —
# committed_ is a drain() predicate variable, so its writer must reach
# a notify on drain_cv_.
stage
sed '/committed_ is a drain predicate/d' \
  "$TMP/src/runtime/pipeline.cpp" > "$TMP/src/runtime/pipeline.cpp.new"
mv "$TMP/src/runtime/pipeline.cpp.new" "$TMP/src/runtime/pipeline.cpp"
if grep -q 'committed_ is a drain predicate' "$TMP/src/runtime/pipeline.cpp"; then
  echo "FAIL: mutation 11 seed did not apply (commit moved?)" >&2
  exit 1
fi
expect_findings "predicate write without notify" 1 \
  "liveness-discipline.*committed_.*never reaches a notify"

# Mutation 12 (liveness-discipline): a spin whose flag nothing in the
# tree ever writes — unreachable from shutdown()/drain().
stage
cat >> "$TMP/src/runtime/pipeline.cpp" <<'EOF'
namespace ccvc::runtime {
void sa_mutation_spin(std::atomic<int>& v) {
  Backoff b;
  while (v.load(std::memory_order_acquire) == 0) b.pause();
}
}  // namespace ccvc::runtime
EOF
# The seeded load is a new atomic op, so ATOMICS.md drifts alongside.
expect_findings "spin without a written stop flag" 2 \
  "liveness-discipline.*sa_mutation_spin.*consults no termination flag" \
  "atomics-order.*ATOMICS.md does not match"

# Mutation 13 (blocking drift): the tree is untouched but the committed
# BLOCKING.md is stale — the byte-identical gate must catch it.
stage
printf '\nstale trailing line\n' >> "$TMP/docs/BLOCKING.md"
expect_findings "stale BLOCKING.md" 1 \
  "blocking-graph.*BLOCKING.md does not match"

echo "sa_mutation: all mutation classes rejected"
