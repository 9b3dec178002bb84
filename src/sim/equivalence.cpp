#include "sim/equivalence.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "engine/message.hpp"
#include "engine/session.hpp"
#include "engine/snapshot.hpp"
#include "runtime/pipeline.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"

namespace ccvc::sim {

EquivalenceReport run_equivalence(const EquivalenceConfig& cfg) {
  EquivalenceReport report;

  // --- phase 1: record the simulator -------------------------------
  std::vector<std::pair<SiteId, net::Payload>> uplinks;
  std::vector<std::vector<net::Payload>> sim_downlinks(cfg.num_sites + 1);
  net::Payload sim_state;
  {
    engine::StarSessionConfig scfg;
    scfg.num_sites = cfg.num_sites;
    scfg.initial_doc = cfg.initial_doc;
    scfg.engine = cfg.engine;
    scfg.seed = cfg.seed;
    auto session = std::make_unique<engine::StarSession>(scfg);
    net::Network& net = session->network();
    for (SiteId i = 1; i <= cfg.num_sites; ++i) {
      // Reliability is disabled, so channel bytes are bare §2 payloads
      // and the passthrough links below the original receivers are
      // behaviour-free — the taps forward straight to the sites.
      net.channel(i, kNotifierSite)
          .set_receiver([&uplinks, &session, i](const net::Payload& b) {
            uplinks.emplace_back(i, b);
            session->notifier().on_client_message(i, b);
          });
      net.channel(kNotifierSite, i)
          .set_receiver([&sim_downlinks, &session, i](const net::Payload& b) {
            sim_downlinks[i].push_back(b);
            session->client(i).on_center_message(b);
          });
    }
    WorkloadConfig w;
    w.ops_per_site = cfg.ops_per_site;
    w.seed = cfg.seed;
    StarWorkload workload(*session, w);
    workload.start();
    session->run_to_quiescence();
    report.sim_converged = session->converged();
    report.sim_text = session->notifier().text();
    sim_state = engine::save_checkpoint(session->notifier());
  }
  report.uplinks = uplinks.size();

  // --- phase 2: replay through the pipeline ------------------------
  std::vector<std::vector<net::Payload>> replay_downlinks(cfg.num_sites + 1);
  net::Payload replay_state;
  {
    runtime::PipelineConfig pcfg;
    pcfg.ring_capacity = cfg.ring_capacity;
    pcfg.max_batch = cfg.max_batch;
    pcfg.flush = runtime::FlushPolicy::kFixed;
    runtime::NotifierPipeline pipeline(
        cfg.num_sites, cfg.initial_doc, cfg.engine,
        [&](SiteId dest, net::Payload frame) {
          report.batch_frames += 1;
          for (net::Payload& msg : engine::decode_batch(frame)) {
            replay_downlinks[dest].push_back(std::move(msg));
          }
        },
        pcfg);
    for (auto& [from, bytes] : uplinks) {
      pipeline.submit(from, std::move(bytes));
    }
    pipeline.drain();
    report.replay_text = pipeline.site().text();
    replay_state = engine::save_checkpoint(pipeline.site());
    pipeline.shutdown();
  }

  // --- compare ------------------------------------------------------
  report.state_identical = sim_state == replay_state;
  report.egress_identical = true;
  for (SiteId i = 1; i <= cfg.num_sites; ++i) {
    report.downlink_msgs += sim_downlinks[i].size();
    if (sim_downlinks[i] != replay_downlinks[i]) {
      report.egress_identical = false;
    }
  }
  return report;
}

}  // namespace ccvc::sim
