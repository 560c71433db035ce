#pragma once
// InferenceSession: a frozen model hosted for forward-only execution.
//
// The session owns one *primary* net (batch 1) that holds the weights —
// optionally restored from a serialized checkpoint — plus a pool of
// *replicas*: per-batch-size nets whose activation blobs act as
// per-request arenas and whose parameters are shared read-only with the
// primary via Net::share_params_from (no weight copies). Replica batch
// sizes are rounded up to powers of two so the pool stays bounded
// ({1,2,4,8,...}) and every scope is profiled once during warmup instead
// of mid-traffic; slack slots are padded with the last real sample and
// their outputs ignored (per-sample independence keeps the real slots
// bit-exact).
//
// Every net is built with ExecContext::inference = true, so layers skip
// all gradient/solver scratch and Net::backward() throws.

#include <memory>
#include <string>
#include <vector>

#include "kernels/dispatch.hpp"
#include "minicaffe/layers/input_layer.hpp"
#include "minicaffe/net.hpp"
#include "minicaffe/serialization.hpp"

namespace serving {

struct SessionOptions {
  kern::ComputeMode mode = kern::ComputeMode::kNumeric;
  /// Optional checkpoint to restore into the primary net (see
  /// mc::save_weights). Empty: keep the spec's filler-initialised weights.
  /// Keys must match the session's (possibly prefixed) layer names — a
  /// snapshot from save_weights(session.primary(), ...) always does.
  std::string weights_path;
  /// Prepended to every layer name (e.g. "t0:"): multi-tenant servers use
  /// it so scheduler scope keys never collide across tenants.
  std::string name_prefix;
  /// Lane-coalescing stager every replica's launchers stage into
  /// (ExecContext::stager). It stages only while a dispatcher arms it: the
  /// GLP4NN scheduler does in the steady scopes of a batch whose binding
  /// carries the same stager. Null: launches are never staged.
  kern::Stager* stager = nullptr;
};

/// Round up to the replica pool's batch granularity (next power of two).
int replica_batch_for(int batch);

class InferenceSession {
 public:
  struct Replica {
    std::unique_ptr<mc::ExecContext> ec;
    std::unique_ptr<mc::Net> net;
    mc::InputLayer* input = nullptr;
    mc::Blob* output = nullptr;
    int batch = 0;
    bool busy = false;
  };

  InferenceSession(scuda::Context& ctx, kern::KernelDispatcher& dispatcher,
                   mc::NetSpec spec, SessionOptions opts = {});

  /// Find an idle replica for `batch` requests (rounded up to the pool
  /// granularity), building one on first use. Marks it busy.
  Replica& checkout(int batch);
  void release(Replica& r) { r.busy = false; }

  /// Fill the replica's input staging from `samples` (one pointer per
  /// request; slack slots repeat the last sample), point it at `home` as
  /// its home stream, and launch the forward pass (asynchronous).
  /// `samples` may be empty in timing-only mode.
  void run_batch(Replica& r, const std::vector<const float*>& samples,
                 gpusim::StreamId home);

  /// Pointer to request i's output sample in the replica's output blob.
  /// Valid once the batch's completion event has been reached.
  const float* output_of(const Replica& r, int i) const;

  std::size_t sample_input_size() const { return input_size_; }
  std::size_t sample_output_size() const { return output_size_; }
  mc::Net& primary() { return *replicas_.front()->net; }
  const mc::NetSpec& spec() const { return spec_; }
  /// Replicas built so far (primary included) — the arena high-water mark.
  std::size_t replica_count() const { return replicas_.size(); }

 private:
  Replica& build_replica(int batch);

  scuda::Context* ctx_;
  kern::KernelDispatcher* dispatcher_;
  mc::NetSpec spec_;  ///< batch-agnostic template (Input batch rewritten)
  SessionOptions opts_;
  std::string output_blob_;
  std::size_t input_size_ = 0;
  std::size_t output_size_ = 0;
  /// All replicas, primary first (replicas_[0]).
  std::vector<std::unique_ptr<Replica>> replicas_;
};

}  // namespace serving
