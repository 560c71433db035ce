#pragma once
// Data-parallel training across a simulated fleet: one net + solver
// replica per device, sample-sharded data layers, and a bucketed
// all-reduce (comm/collectives.hpp — ring/tree/hierarchical, selected
// per bucket by the collective cost model) that averages gradients
// between backward and the solver update.
//
// The trainer is *eager* by default: buckets of parameters are
// all-reduced as soon as their backward accumulation completes (a
// per-layer backward hook records bucket-ready events while later
// layers are still being issued), so communication overlaps the rest of
// the backward pass on the non-blocking comm streams. `overlap = false`
// degrades to the serialize-then-reduce baseline — all buckets become
// ready only when the full backward pass has drained — which is the
// comparison BENCH_fleet.json quantifies.
//
// Bit-exactness contract (tests/fleet_test.cpp, fleet differential
// suite): training on N devices is bit-identical to a single device
// consuming the same samples in N sequential micro-batches and reducing
// with the selected algorithm's reference oracle (its wave program
// replayed by reference_collective_allreduce) — same sample partition,
// same fixed association order, same 1/N scaling, one solver update per
// iteration. With fp16-on-the-wire the fleet is still bit-identical to
// its fp16 oracle; equivalence to single-device fp32 training weakens
// to a loss-trajectory tolerance.

#include <cstddef>
#include <memory>
#include <vector>

#include "comm/allreduce.hpp"
#include "comm/collectives.hpp"
#include "minicaffe/exec_context.hpp"
#include "minicaffe/net.hpp"
#include "minicaffe/solver.hpp"
#include "simcuda/fleet.hpp"

namespace comm {

struct FleetTrainerOptions {
  mc::SolverParams solver;
  /// Bucket granularity of the all-reduce (DDP-style).
  std::size_t bucket_bytes = 1 << 20;
  /// Eager bucketed overlap (true) vs serialize-then-reduce baseline.
  bool overlap = true;
  /// Collective algorithm selection, wire precision, pipelining, lanes.
  CollectiveOptions collective;
};

class FleetTrainer {
 public:
  /// One ExecContext per fleet device, already wired to that device's
  /// Context and dispatcher (Serial or a per-device GLP4NN scheduler)
  /// with identically seeded RNGs so every replica initializes the same
  /// weights. DAG scheduling and inference mode must be off.
  FleetTrainer(scuda::Fleet& fleet, std::vector<mc::ExecContext*> contexts,
               const mc::NetSpec& spec, FleetTrainerOptions options);

  /// Run `iterations` data-parallel steps. `on_iteration(iter, loss)`
  /// fires after each (loss = mean of per-device shard losses).
  void step(int iterations,
            const std::function<void(int, float)>& on_iteration = {});

  int iter() const { return solvers_.front()->iter(); }
  float last_loss() const { return solvers_.front()->last_loss(); }

  mc::Net& net(int d) { return *nets_.at(static_cast<std::size_t>(d)); }
  mc::SgdSolver& solver(int d) {
    return *solvers_.at(static_cast<std::size_t>(d));
  }
  const BucketPlan& plan() const { return plan_; }
  CollectiveEngine& collectives() { return collectives_; }
  /// Host bytes of gradient staging held (zero until the first numeric
  /// iteration).
  std::size_t staging_bytes() const;

 private:
  struct UnpackJob {
    std::vector<std::pair<float*, std::size_t>> dsts;  ///< diff ptr, count
    const float* src = nullptr;
    float scale = 1.0f;
  };

  void train_one_iteration();
  void on_backward_layer(int device, std::size_t layer);
  void record_bucket_ready(int device, std::size_t bucket);

  scuda::Fleet* fleet_;
  std::vector<mc::ExecContext*> ec_;
  FleetTrainerOptions options_;
  std::vector<std::unique_ptr<mc::Net>> nets_;
  std::vector<std::unique_ptr<mc::SgdSolver>> solvers_;
  BucketPlan plan_;
  CollectiveEngine collectives_;

  /// flat_[b][d]: device d's packed gradient for bucket b. Sized on the
  /// first numeric iteration, whose pack overwrites all of it, as every
  /// later one does; a timing-only fleet holds none (the collective
  /// engine then never dereferences the buffers).
  std::vector<std::vector<std::vector<float>>> flat_;
  /// ready_events_[b * N + d]: bucket-ready event on d's default stream.
  std::vector<gpusim::EventId> ready_events_;
  std::vector<std::size_t> next_bucket_;  ///< per-device eager cursor
  /// Unpack jobs borrowed by host callbacks until the iteration's sync.
  std::vector<std::unique_ptr<UnpackJob>> jobs_;
};

}  // namespace comm
