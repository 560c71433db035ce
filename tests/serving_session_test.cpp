// InferenceSession and the forward-only execution mode: gradient/solver
// memory is actually skipped, backward() is rejected, replicas share the
// primary's weights without copies, the replica pool rounds to powers of
// two, and a batched forward is bit-identical to batch-1 forwards of the
// same samples (the serving determinism contract at the session level).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "minicaffe/net.hpp"
#include "serving/model_zoo.hpp"
#include "serving/session.hpp"
#include "test_helpers.hpp"

namespace {

std::size_t net_bytes(bool inference) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  kern::SerialDispatcher dispatcher(ctx);
  mc::ExecContext ec;
  ec.ctx = &ctx;
  ec.dispatcher = &dispatcher;
  ec.train = !inference;
  ec.inference = inference;
  ec.rng = glp::Rng(1);
  mc::Net net(serving::tiny_cnn(4), ec);
  return ctx.bytes_allocated();
}

// Satellite: the forward-only memory fix. A net built for inference must
// allocate strictly less device memory than the same spec built for
// training (no diff buffers, no solver scratch) — historically forward()
// paid for gradients it never used.
TEST(InferenceMode, SkipsGradientAllocations) {
  const std::size_t train_bytes = net_bytes(false);
  const std::size_t infer_bytes = net_bytes(true);
  EXPECT_LT(infer_bytes, train_bytes);
  // Data + params dominate a forward-only net; gradients double a
  // training net's footprint, so inference should save a sizeable slice,
  // not just round a buffer away.
  EXPECT_LT(static_cast<double>(infer_bytes),
            0.75 * static_cast<double>(train_bytes));
}

TEST(InferenceMode, RejectsBackward) {
  scuda::Context ctx(gpusim::DeviceTable::p100());
  kern::SerialDispatcher dispatcher(ctx);
  mc::ExecContext ec;
  ec.ctx = &ctx;
  ec.dispatcher = &dispatcher;
  ec.train = false;
  ec.inference = true;
  mc::Net net(serving::tiny_cnn(1), ec);
  net.forward();
  ctx.device().synchronize();
  EXPECT_THROW(net.backward(), glp::Error);
}

TEST(InferenceSession, ReplicaBatchRoundsToPowersOfTwo) {
  EXPECT_EQ(serving::replica_batch_for(1), 1);
  EXPECT_EQ(serving::replica_batch_for(2), 2);
  EXPECT_EQ(serving::replica_batch_for(3), 4);
  EXPECT_EQ(serving::replica_batch_for(5), 8);
  EXPECT_EQ(serving::replica_batch_for(8), 8);
  EXPECT_EQ(serving::replica_batch_for(9), 16);
}

struct SessionEnv {
  SessionEnv()
      : ctx(gpusim::DeviceTable::p100()),
        dispatcher(ctx),
        session(ctx, dispatcher, serving::tiny_cnn(1)) {}

  scuda::Context ctx;
  kern::SerialDispatcher dispatcher;
  serving::InferenceSession session;
};

TEST(InferenceSession, ReplicasShareThePrimaryWeights) {
  SessionEnv env;
  serving::InferenceSession::Replica& r = env.session.checkout(4);
  EXPECT_EQ(r.batch, 4);
  ASSERT_EQ(env.session.replica_count(), 2u);  // primary + batch-4 arena

  const auto& primary_layers = env.session.primary().layers();
  const auto& replica_layers = r.net->layers();
  ASSERT_EQ(primary_layers.size(), replica_layers.size());
  std::size_t shared = 0;
  for (std::size_t i = 0; i < primary_layers.size(); ++i) {
    const auto& p = primary_layers[i]->param_blobs();
    const auto& q = replica_layers[i]->param_blobs();
    ASSERT_EQ(p.size(), q.size());
    for (std::size_t j = 0; j < p.size(); ++j) {
      EXPECT_EQ(p[j].get(), q[j].get())
          << "layer " << i << " param " << j << " was copied, not shared";
      ++shared;
    }
  }
  EXPECT_GT(shared, 0u);  // tiny_cnn has conv + fc weights and biases
  EXPECT_EQ(r.net->learnable_params(), env.session.primary().learnable_params());
}

TEST(InferenceSession, CheckoutReusesIdleReplicas) {
  SessionEnv env;
  serving::InferenceSession::Replica& a = env.session.checkout(3);
  EXPECT_EQ(a.batch, 4);  // rounded up
  EXPECT_TRUE(a.busy);

  // Same size while `a` is busy: a second arena is built.
  serving::InferenceSession::Replica& b = env.session.checkout(4);
  EXPECT_NE(&a, &b);
  const std::size_t high_water = env.session.replica_count();

  // Released replicas are reused, not rebuilt.
  env.session.release(a);
  env.session.release(b);
  serving::InferenceSession::Replica& c = env.session.checkout(4);
  EXPECT_TRUE(&c == &a || &c == &b);
  EXPECT_EQ(env.session.replica_count(), high_water);
}

// The session-level determinism contract: one batched forward produces,
// slot for slot, the same bits as independent batch-1 forwards of the
// same samples. This is what lets batching ride on the
// convergence-invariance story.
TEST(InferenceSession, BatchedForwardMatchesBatchOneBitExact) {
  SessionEnv env;
  const std::size_t in_n = env.session.sample_input_size();
  const std::size_t out_n = env.session.sample_output_size();
  const gpusim::StreamId home = scuda::Stream(env.ctx).id();

  glp::Rng rng(glptest::test_seed(21));
  const int kSamples = 3;
  std::vector<std::vector<float>> samples;
  for (int s = 0; s < kSamples; ++s) {
    std::vector<float> v(in_n);
    for (float& x : v) x = static_cast<float>(rng.next_double() * 2.0 - 1.0);
    samples.push_back(std::move(v));
  }

  // Reference: each sample alone through the batch-1 primary.
  std::vector<std::vector<float>> ref;
  for (const auto& s : samples) {
    serving::InferenceSession::Replica& r = env.session.checkout(1);
    env.session.run_batch(r, {s.data()}, home);
    env.ctx.device().synchronize();
    const float* out = env.session.output_of(r, 0);
    ref.emplace_back(out, out + out_n);
    env.session.release(r);
  }

  // Subject: all samples in one (padded) batch.
  serving::InferenceSession::Replica& r = env.session.checkout(kSamples);
  std::vector<const float*> ptrs;
  for (const auto& s : samples) ptrs.push_back(s.data());
  env.session.run_batch(r, ptrs, home);
  env.ctx.device().synchronize();
  for (int s = 0; s < kSamples; ++s) {
    const float* out = env.session.output_of(r, s);
    EXPECT_EQ(0, std::memcmp(out, ref[static_cast<std::size_t>(s)].data(),
                             out_n * sizeof(float)))
        << "sample " << s << " differs from its batch-1 reference";
  }
  env.session.release(r);
}

}  // namespace
