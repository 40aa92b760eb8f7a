/// Live control-plane demo: the deployment shape of Section 4.3 on one
/// machine. A central DPS server accepts one TCP connection per simulated
/// socket (3-byte messages each way, as in the paper's overhead analysis);
/// each client thread owns one socket of the simulated cluster, reports
/// its noisy RAPL reading every round, and applies the cap it receives.
///
/// Two 4-socket clusters run a phased workload against a sustained one, so
/// the printout shows DPS shifting budget between them in real time.
///
/// Usage: live_controller [rounds]   (default 240; one round per second of
/// simulated time, executed as fast as the loop runs)

#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dps_manager.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "power/rapl_sim.hpp"
#include "sim/cluster.hpp"
#include "workloads/npb_suite.hpp"
#include "workloads/spark_suite.hpp"

int main(int argc, char** argv) {
  using namespace dps;
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 240;
  constexpr int kSocketsPerCluster = 4;
  constexpr int kUnits = 2 * kSocketsPerCluster;

  // The simulated hardware. A mutex serializes cluster stepping: client
  // threads only read/apply their own unit's state, the stepping happens
  // on the server thread between rounds.
  Cluster cluster({GroupSpec{spark_workload("Bayes"), kSocketsPerCluster, 3},
                   GroupSpec{npb_workload("CG"), kSocketsPerCluster, 4}});
  SimulatedRapl rapl(kUnits);
  std::mutex sim_mutex;
  std::vector<Watts> true_power(kUnits, 0.0);

  ControlServer server(0, kUnits);
  std::printf("DPS control server listening on 127.0.0.1:%u, %d units\n",
              server.port(), kUnits);

  std::vector<std::thread> clients;
  clients.reserve(kUnits);
  for (int u = 0; u < kUnits; ++u) {
    clients.emplace_back([&, u] {
      NodeClient client(
          [&, u]() -> Watts {
            std::lock_guard lock(sim_mutex);
            return rapl.read_power(u);
          },
          [&, u](Watts cap) {
            std::lock_guard lock(sim_mutex);
            rapl.set_cap(u, cap);
          });
      client.connect(server.port());
      client.run();
    });
  }
  server.accept_all();

  ManagerContext ctx;
  ctx.num_units = kUnits;
  ctx.total_budget = 110.0 * kUnits;
  ctx.tdp = rapl.tdp();
  ctx.min_cap = rapl.min_cap();
  DpsManager dps;

  // Drive rounds one at a time so the simulation can advance between them;
  // begin_session resets DPS once, run_round preserves its power history.
  std::uint64_t total_decide_ns = 0;
  server.begin_session(dps, ctx);
  for (int round = 0; round < rounds; ++round) {
    {
      std::lock_guard lock(sim_mutex);
      std::vector<Watts> effective(kUnits);
      rapl.effective_caps_batch(effective);
      cluster.step(1.0, effective, true_power);
      rapl.record_batch(true_power, 1.0);
      rapl.advance_step();
    }
    total_decide_ns += server.run_round(dps);

    if (round % 30 == 0) {
      std::lock_guard lock(sim_mutex);
      double cluster_a = 0.0, cluster_b = 0.0;
      for (int u = 0; u < kSocketsPerCluster; ++u) {
        cluster_a += server.last_caps()[u];
        cluster_b += server.last_caps()[u + kSocketsPerCluster];
      }
      std::printf(
          "t=%4d s | Bayes cluster caps %6.1f W | CG cluster caps %6.1f W | "
          "runs %zu/%zu\n",
          round, cluster_a, cluster_b, cluster.completions(0).size(),
          cluster.completions(1).size());
    }
  }

  server.shutdown();
  for (auto& t : clients) t.join();
  std::printf(
      "\n%d rounds over real TCP; controller spent %.1f us/round deciding\n"
      "(each round exchanges %d bytes total — 3 per request per unit).\n",
      rounds, 1e-3 * static_cast<double>(total_decide_ns) / rounds,
      kUnits * 2 * 3);
  return 0;
}
