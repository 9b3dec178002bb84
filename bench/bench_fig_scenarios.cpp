// E1 + E2 — regenerates the paper's Fig. 2 and Fig. 3 / §5 artifacts as
// console traces: the state vectors, per-destination propagation
// timestamps, buffered timestamps, and concurrency verdicts of the
// worked example, plus the divergence/intention-violation run without
// transformation.
#include <cstdio>
#include <string>

#include "engine/session.hpp"
#include "sim/observers.hpp"
#include "sim/oracle.hpp"
#include "sim/scenario.hpp"
#include "util/table.hpp"

namespace {

using namespace ccvc;

std::string name_of(const engine::EventKey& k) {
  // Map (site, seq) back to the paper's O1..O4 names.
  std::string base;
  if (k.id == OpId{1, 1}) base = "O1";
  if (k.id == OpId{2, 1}) base = "O2";
  if (k.id == OpId{2, 2}) base = "O3";
  if (k.id == OpId{3, 1}) base = "O4";
  return k.center_form ? base + "'" : base;
}

void run_fig3() {
  std::puts("== Fig. 3 / Section 5: compressed state vector walkthrough ==");
  std::puts("(initial document \"ABCDE\"; O1=Ins[\"12\",1]@s1, "
            "O2=Del[3,2]@s2, O4=Ins[\"y\",1]@s3, O3=Ins[\"x\",4]@s2)\n");

  sim::ObserverMux mux;
  sim::VerdictRecorder recorder;
  sim::CausalityOracle oracle(3);
  mux.add(&recorder);
  mux.add(&oracle);
  engine::StarSession session(sim::fig_scenario_config(), &mux);
  sim::schedule_fig_scenario(session);
  session.run_to_quiescence();

  {
    util::TextTable t({"site", "final SV", "final document", "HB"});
    t.add_row({"0 (notifier)",
               session.notifier().state_vector().full().str(),
               session.notifier().text(),
               [&] {
                 std::string hb;
                 for (const auto& e : session.notifier().state().hb) {
                   hb += name_of({e.id, true}) + e.stamp.str() + " ";
                 }
                 return hb;
               }()});
    for (SiteId i = 1; i <= 3; ++i) {
      std::string hb;
      for (const auto& e : session.client(i).history()) {
        const bool center = e.source == clocks::HbSource::kFromCenter;
        hb += name_of({e.id, center}) + e.stamp.str() + " ";
      }
      t.add_row({"site " + std::to_string(i),
                 session.client(i).state_vector().str(),
                 session.client(i).text(), hb});
    }
    std::fputs(t.render().c_str(), stdout);
  }

  std::puts("\nConcurrency verdicts (paper order):");
  {
    util::TextTable t({"checked at", "incoming", "buffered", "verdict",
                       "oracle agrees"});
    for (const auto& v : recorder.verdicts()) {
      const bool truth =
          oracle.ground_truth_concurrent(v.incoming, v.buffered);
      t.add_row({v.at_site == 0 ? "site 0" : "site " + std::to_string(v.at_site),
                 name_of(v.incoming), name_of(v.buffered),
                 v.concurrent ? "concurrent" : "dependent",
                 truth == v.concurrent ? "yes" : "NO"});
    }
    std::fputs(t.render().c_str(), stdout);
  }
  std::printf("verdicts=%llu mismatches=%llu converged=%s\n\n",
              static_cast<unsigned long long>(oracle.verdicts_checked()),
              static_cast<unsigned long long>(oracle.verdict_mismatches()),
              session.converged() ? "yes" : "NO");
}

void run_fig2() {
  std::puts("== Fig. 2 / Section 2.2: the same schedule WITHOUT "
            "transformation ==");
  engine::EngineConfig eng;
  eng.transform = false;
  eng.check_fidelity = false;
  sim::ObserverMux mux;
  sim::CausalityOracle oracle(3, /*transforms_enabled=*/false);
  mux.add(&oracle);
  engine::StarSession session(sim::fig_scenario_config(eng), &mux);
  sim::schedule_fig_scenario(session);
  session.run_to_quiescence();

  util::TextTable t({"site", "final document"});
  const auto docs = session.documents();
  for (std::size_t i = 0; i < docs.size(); ++i) {
    t.add_row({i == 0 ? "0 (notifier)" : "site " + std::to_string(i),
               docs[i]});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf(
      "diverged=%s (paper: divergence)  wrong verdicts=%llu/%llu (paper: "
      "causality stays N-dimensional)\n\n",
      session.converged() ? "NO" : "yes",
      static_cast<unsigned long long>(oracle.verdict_mismatches()),
      static_cast<unsigned long long>(oracle.verdicts_checked()));

  std::puts("Section 2.2 two-operation example:");
  util::TextTable t2({"mode", "site 1 result", "paper expectation"});
  for (const bool transform : {true, false}) {
    engine::EngineConfig e2;
    e2.transform = transform;
    e2.check_fidelity = transform;
    engine::StarSession s2(sim::fig_scenario_config(e2));
    s2.queue().schedule_at(0.0, [&] { s2.client(2).erase(2, 3); });
    s2.queue().schedule_at(5.0, [&] { s2.client(1).insert(1, "12"); });
    s2.run_to_quiescence();
    t2.add_row({transform ? "with OT" : "without OT", s2.client(1).text(),
                transform ? sim::kSec22IntentionResult
                          : sim::kSec22ViolatedResult});
  }
  std::fputs(t2.render().c_str(), stdout);
}

}  // namespace

int main() {
  run_fig3();
  run_fig2();
  return 0;
}
