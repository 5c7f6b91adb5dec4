// Layer probes of the traced run: direct calls into one layer's public
// functions at the workloads' sizes, each timed as the median of repeats.
#include <stdexcept>

#include "collectives/coll.hpp"
#include "common.hpp"
#include "model/generate.hpp"
#include "model/trainer.hpp"
#include "models.hpp"
#include "parallel/dist_transformer.hpp"
#include "runtime/comm.hpp"
#include "serve/kv_cache.hpp"
#include "tensor/ops.hpp"

namespace pb {
namespace {

using namespace bgl;

/// Median over `reps` of the mean seconds of `inner` calls of `fn`.
template <typename Fn>
double time_median(int reps, int inner, Fn&& fn) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const double t = now_s();
    for (int i = 0; i < inner; ++i) fn();
    v.push_back((now_s() - t) / inner);
  }
  return median(v);
}

void probe_serving_model(Report& report) {
  const model::MoEModelConfig c = serving_model_config();
  Rng rng(kServingModelSeed);
  model::MoETransformerLM lm(c, rng);
  lm.set_training(false);

  // KV materialize: every layer of a full-window sequence.
  serve::PagedKvCache::Config kc;
  kc.n_layers = c.n_layers;
  kc.d_model = c.d_model;
  kc.seq_len = c.seq_len;
  kc.num_blocks = (c.seq_len + kc.block_tokens - 1) / kc.block_tokens;
  serve::PagedKvCache kv(kc);
  serve::PagedKvCache::Sequence seq;
  if (!kv.try_reserve(seq, c.seq_len))
    throw std::runtime_error("probe KV pool too small");
  std::vector<float> row(static_cast<std::size_t>(c.d_model), 0.5f);
  for (std::int64_t l = 0; l < c.n_layers; ++l)
    for (std::int64_t p = 0; p < c.seq_len; ++p)
      kv.write_row(seq, l, p, row, row);
  seq.len = c.seq_len;
  model::DecodeScratch scratch = lm.make_decode_scratch();
  const double materialize = time_median(9, 50, [&] {
    for (std::int64_t l = 0; l < c.n_layers; ++l)
      kv.materialize(seq, l, scratch.k[static_cast<std::size_t>(l)],
                     scratch.v[static_cast<std::size_t>(l)]);
  });
  report.add("serve.kv_materialize_us", 1e6 * materialize, "us", 9 * 50);

  // One decode position in the middle of the window.
  model::DecodeState state = lm.make_decode_state();
  for (std::int64_t p = 0; p < c.seq_len / 2; ++p)
    (void)lm.forward_decode(static_cast<std::int32_t>(p % c.vocab), scratch,
                            state);
  std::vector<double> decode;
  Tensor logits;
  for (int r = 0; r < 200; ++r) {
    model::DecodeState s = state;
    const double t = now_s();
    logits = lm.forward_decode(5, scratch, s);
    decode.push_back(now_s() - t);
  }
  report.add("model.forward_decode_us", 1e6 * median(decode), "us", 200);

  // One batched forward over a full window: what a batched re-prefill
  // of a slid window would cost.
  std::vector<std::int32_t> window(static_cast<std::size_t>(c.seq_len));
  for (std::size_t i = 0; i < window.size(); ++i)
    window[i] = static_cast<std::int32_t>(i % static_cast<std::size_t>(c.vocab));
  const double fwd = time_median(9, 2, [&] { (void)lm.forward(window); });
  report.add("model.forward_window_ms", 1e3 * fwd, "ms", 18);

  model::GenerateOptions options;
  options.temperature = 1.0;
  options.top_k = 8;
  const auto lrow = logits.f32();
  const std::span<const float> last(lrow.data(),
                                    static_cast<std::size_t>(c.vocab));
  Rng sampler(11);
  const double sample = time_median(9, 500, [&] {
    (void)model::sample_logits_row(last, options, sampler);
  });
  report.add("model.sample_us", 1e6 * sample, "us", 9 * 500);
}

/// m x k times k x n through ops::matmul: rate, operation count and the
/// bytes of its operands and result.
void probe_gemm(Report& report, const char* name, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  Rng rng(5);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const int inner = m == 1 ? 200 : 20;
  const double s = time_median(9, inner, [&] { (void)ops::matmul(a, b); });
  const double flops = 2.0 * static_cast<double>(m * k * n);
  const double bytes = 4.0 * static_cast<double>(m * k + k * n + m * n);
  const std::string base = std::string("tensor.") + name;
  report.add(base + "_gflops", flops / s * 1e-9, "GFLOP/s", 9 * inner);
  report.add(base + "_flops", flops, "count", 1);
  report.add(base + "_bytes", bytes, "B", 1);
}

/// Synchronous collectives at train_moda's sizes, under its link emulation.
void probe_collectives(Report& report) {
  const model::MoEModelConfig c = training_model_config();
  rt::FaultInjector injector(link_emulation());
  rt::WorldOptions options;
  options.fault_injector = &injector;
  options.transport = "inproc";
  std::vector<double> allreduce, alltoallv;
  rt::World::run(kTrainRanks, options, [&](rt::Communicator& world) {
    const auto layout = parallel::MoDaLayout::make(kTrainRanks, kTrainEp);
    parallel::DistMoETransformerLM lm(world, layout, c, Rng(kTrainingModelSeed));
    std::vector<float> grads(static_cast<std::size_t>(lm.num_local_params()),
                             1.0f);
    const rt::Communicator ep = layout.ep_comm(world);
    const std::size_t rows = static_cast<std::size_t>(
        kTokensPerRank * c.top_k / kTrainEp);
    const std::vector<std::vector<float>> send(
        static_cast<std::size_t>(kTrainEp),
        std::vector<float>(rows * static_cast<std::size_t>(c.d_model), 1.0f));
    for (int r = 0; r < 12; ++r) {
      world.barrier();
      double t = now_s();
      coll::allreduce_sum<float>(world, grads);
      const double ar = now_s() - t;
      world.barrier();
      t = now_s();
      (void)coll::alltoallv<float>(ep, send);
      const double a2a = now_s() - t;
      if (world.rank() == 0 && r >= 2) {
        allreduce.push_back(ar);
        alltoallv.push_back(a2a);
      }
    }
  });
  report.add("collectives.allreduce_grad_ms", 1e3 * median(allreduce), "ms",
             static_cast<std::int64_t>(allreduce.size()));
  report.add("collectives.alltoallv_dispatch_ms", 1e3 * median(alltoallv),
             "ms", static_cast<std::int64_t>(alltoallv.size()));
}

/// model::Trainer on train_moda's global batches: the single-worker
/// baseline.
void probe_single_rank(std::uint64_t seed, Report& report) {
  const model::MoEModelConfig c = training_model_config();
  Rng rng(kTrainingModelSeed);
  model::MoETransformerLM lm(c, rng);
  train::Adam adam(1e-3);
  model::Trainer trainer(lm, adam);
  train::MarkovTokenStream stream(c.vocab, 0.05, seed);
  (void)trainer.train_step(stream.next_batch(kTrainRanks * kSeqsPerRank,
                                             c.seq_len));
  std::vector<double> steps;
  for (int r = 0; r < 6; ++r) {
    const train::Batch batch =
        stream.next_batch(kTrainRanks * kSeqsPerRank, c.seq_len);
    const double t = now_s();
    (void)trainer.train_step(batch);
    steps.push_back(now_s() - t);
  }
  report.add("train.single_rank_step_ms", 1e3 * median(steps), "ms", 6);
}

}  // namespace

void run_probes(std::uint64_t seed, Report& report) {
  probe_serving_model(report);
  const model::MoEModelConfig serve = serving_model_config();
  const model::MoEModelConfig train = training_model_config();
  probe_gemm(report, "gemm_row", 1, serve.d_model, serve.d_ffn);
  probe_gemm(report, "gemm_batch", kTokensPerRank, train.d_model, train.d_ffn);
  probe_collectives(report);
  probe_single_rank(seed, report);
}

}  // namespace pb
