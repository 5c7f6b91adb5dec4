// Model shapes and link emulation the workloads and probes share.
#pragma once

#include <cstdint>

#include "model/config.hpp"
#include "runtime/fault.hpp"

namespace pb {

/// bench_serve's full serving model: a 64-token window, 8 experts, top-2.
inline bgl::model::MoEModelConfig serving_model_config() {
  bgl::model::MoEModelConfig c;
  c.name = "perfbench-serve";
  c.vocab = 64;
  c.d_model = 128;
  c.n_layers = 4;
  c.n_heads = 4;
  c.seq_len = 64;
  c.d_ffn = 256;
  c.num_experts = 8;
  c.top_k = 2;
  c.aux_loss_weight = 0.0;
  c.validate();
  return c;
}
inline constexpr std::uint64_t kServingModelSeed = 3;

inline constexpr int kTrainRanks = 4;
inline constexpr int kTrainEp = 2;
inline constexpr std::int64_t kTrainSeqLen = 32;
inline constexpr std::int64_t kSeqsPerRank = 2;
inline constexpr std::int64_t kTokensPerRank = kSeqsPerRank * kTrainSeqLen;

/// The MoDa training model (bench_overlap's shape, default capacity
/// factor so the gate does drop assignments).
inline bgl::model::MoEModelConfig training_model_config() {
  bgl::model::MoEModelConfig c;
  c.name = "perfbench-train";
  c.vocab = 64;
  c.d_model = 128;
  c.n_layers = 4;
  c.n_heads = 4;
  c.seq_len = kTrainSeqLen;
  c.d_ffn = 256;
  c.num_experts = 4;
  c.top_k = 2;
  c.validate();
  return c;
}
inline constexpr std::uint64_t kTrainingModelSeed = 7;

/// Emulated link: every message is deferred by a fixed latency plus a
/// per-byte serialisation time, so exchanges cost time on one host.
inline bgl::rt::FaultConfig link_emulation() {
  bgl::rt::FaultConfig f;
  f.seed = 1;
  f.delay_prob = 1.0;
  f.delay_s = 300e-6;
  f.delay_per_byte_s = 1e-9;  // ~1 GB/s
  return f;
}

}  // namespace pb
