// train_moda: parallel::DistTrainer with default options on 4 rank threads,
// MoDa layout EP=2 x DP=2 over the inproc transport with emulated links.
// Closed loop: one step at a time, timed barrier to barrier.
//
// The traced run replays DistTrainer::train_step's sequence of public calls
// (forward, loss, backward, gradient sync, clip + Adam, loss allreduce) in
// the benchmark's own spans. Its per-step losses must equal the untraced
// trainer's bitwise, which proves the replay runs the same program.
#include <atomic>
#include <memory>

#include "collectives/coll.hpp"
#include "common.hpp"
#include "core/thread_pool.hpp"
#include "models.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "parallel/dist_trainer.hpp"
#include "runtime/comm.hpp"
#include "tensor/ops.hpp"
#include "trace.hpp"

namespace pb {
namespace {

using namespace bgl;

// Step-time limit for goodput, fixed from the parent's distribution before
// any optimisation: about twice its median on a quiet host, and above its
// 90th percentile on a contended one (median ~120 ms, p90 ~155 ms). A
// limit inside the contended tail makes goodput follow the host's load
// rather than the program.
constexpr double kStepLimitS = 0.200;
constexpr int kSetupRepeats = 3;
constexpr int kMinSteps = 10;

constexpr const char* kKinds[] = {"p2p",            "bcast",     "gather",
                                  "allgather",      "reduce_scatter",
                                  "allreduce",      "alltoall",  "alltoallv"};

/// Per-rank communication counters, read from the rank's private registry.
struct CommCounters {
  std::int64_t allreduce_bytes = 0;
  std::int64_t alltoallv_bytes = 0;
  std::int64_t msgs = 0;
  double recv_wait_s = 0.0;

  static CommCounters read(obs::Registry& r) {
    CommCounters c;
    // The default ring allreduce travels as a reduce-scatter plus an
    // allgather; recursive doubling uses the allreduce kind.
    for (const char* k : {"allreduce", "reduce_scatter", "allgather"})
      c.allreduce_bytes +=
          r.counter(std::string("comm.") + k + ".send.bytes").value();
    c.alltoallv_bytes = r.counter("comm.alltoallv.send.bytes").value();
    for (const char* k : kKinds) {
      const std::string base = std::string("comm.") + k;
      c.msgs += r.counter(base + ".send.msgs").value();
      c.recv_wait_s += r.histogram(base + ".recv.wait_s").sum();
    }
    return c;
  }
  CommCounters operator-(const CommCounters& o) const {
    return {allreduce_bytes - o.allreduce_bytes,
            alltoallv_bytes - o.alltoallv_bytes, msgs - o.msgs,
            recv_wait_s - o.recv_wait_s};
  }
};

struct RankLog {
  std::vector<double> loss;    // global loss per step, warm-up first
  std::vector<double> call_s;  // timed train_step calls
  std::int64_t attempted = 0;
  std::int64_t applied = 0;
  // traced replay only, per timed step
  std::vector<double> alltoall_s;
  std::vector<CommCounters> comm;
  std::int64_t demanded = 0;
  std::int64_t dropped = 0;
};

struct PhaseResult {
  std::vector<RankLog> ranks{kTrainRanks};
  std::vector<double> step_s;  // barrier to barrier
  double setup_s = 0.0;
};

/// DistTrainer::train_step with default options, spelled out in public
/// calls with a span around each.
double replay_step(const rt::Communicator& world,
                   parallel::DistMoETransformerLM& lm,
                   std::span<nn::Parameter* const> params,
                   train::Optimizer& adam, const train::Batch& batch,
                   std::int64_t step, RankLog& log) {
  Span root("train.step", step);
  {
    Span s("parallel.zero_grad");
    lm.set_training(true);
    lm.zero_grad();
    lm.set_grad_scale(1.0);
  }
  Tensor logits;
  {
    Span s("parallel.forward", step);
    logits = lm.forward(batch.tokens);
  }
  nn::LossResult loss;
  {
    Span s("nn.loss", step);
    loss = nn::softmax_cross_entropy(logits, batch.targets);
    ops::scale_(loss.dlogits, 1.0f);
  }
  {
    Span s("parallel.backward", step);
    lm.backward(loss.dlogits);
  }
  // DistTrainer accumulates micro-batch losses with weight 1/k; k = 1.
  const double local_loss = 0.0 + loss.loss * 1.0;
  const moe::DispatchStats d = lm.dispatch_stats();
  log.demanded += d.demanded;
  log.dropped += d.dropped;
  log.alltoall_s.push_back(lm.last_alltoall_s());
  lm.set_grad_scale(1.0);
  {
    Span s("parallel.sync_gradients", step);
    lm.sync_gradients();
  }
  {
    Span s("train.optimizer", step);
    train::clip_grad_norm(params, 1.0);
    adam.step(params);
  }
  Span s("collectives.loss_allreduce", step);
  std::vector<double> acc{local_loss};
  coll::allreduce_sum<double>(world, acc);
  return acc[0] / world.size();
}

/// One World: set-up and warm-up step, then `seconds` of timed steps
/// (none when seconds is 0).
PhaseResult run_phase(std::uint64_t seed, double seconds, bool replay) {
  PhaseResult out;
  rt::FaultInjector injector(link_emulation());
  rt::WorldOptions options;
  options.fault_injector = &injector;
  options.transport = "inproc";
  std::atomic<bool> stop{false};
  const double launch = now_s();
  rt::World::run(kTrainRanks, options, [&](rt::Communicator& world) {
    obs::Registry registry;
    obs::ScopedRegistry scoped(registry);
    const int rank = world.rank();
    RankLog& log = out.ranks[static_cast<std::size_t>(rank)];
    const model::MoEModelConfig config = training_model_config();
    const auto layout = parallel::MoDaLayout::make(kTrainRanks, kTrainEp);
    parallel::DistMoETransformerLM lm(world, layout, config,
                                      Rng(kTrainingModelSeed));
    train::Adam adam(1e-3);
    parallel::DistTrainer trainer(world, lm, adam);
    const std::vector<nn::Parameter*> params = lm.parameters();
    // Every rank draws the same global batch and keeps its shard, so a
    // single worker can train on exactly the same data.
    train::MarkovTokenStream stream(config.vocab, 0.05, seed);
    const std::int64_t shard = kSeqsPerRank * config.seq_len;
    const auto next_batch = [&] {
      const train::Batch global =
          stream.next_batch(kTrainRanks * kSeqsPerRank, config.seq_len);
      train::Batch b;
      const auto lo = global.tokens.begin() + rank * shard;
      b.tokens.assign(lo, lo + shard);
      const auto tlo = global.targets.begin() + rank * shard;
      b.targets.assign(tlo, tlo + shard);
      return b;
    };
    const auto step = [&](std::int64_t k) {
      const train::Batch batch = next_batch();
      ++log.attempted;
      if (replay) {
        const CommCounters before = CommCounters::read(registry);
        log.loss.push_back(
            replay_step(world, lm, params, adam, batch, k, log));
        log.comm.push_back(CommCounters::read(registry) - before);
        ++log.applied;
        return;
      }
      const parallel::DistStepStats stats = trainer.train_step(batch);
      log.loss.push_back(stats.global_loss);
      if (stats.applied) ++log.applied;
    };

    step(-1);  // warm-up: plans, optimizer state, first touches
    world.barrier();
    if (replay) {
      // Keep only the timed steps' spans; every rank is parked between
      // the two barriers while rank 0 drops the warm-up's.
      if (rank == 0) Tracer::clear();
      world.barrier();
    }
    double last = now_s();
    if (rank == 0) out.setup_s = last - launch;
    if (seconds <= 0.0) return;
    log.alltoall_s.clear();
    log.comm.clear();
    log.demanded = log.dropped = 0;
    const double start = last;
    for (std::int64_t k = 0;; ++k) {
      const double t = now_s();
      step(k);
      log.call_s.push_back(now_s() - t);
      // Rank 0 decides before the barrier; every rank reads after it.
      if (rank == 0 && k + 1 >= kMinSteps && now_s() - start >= seconds)
        stop.store(true);
      {
        Span b("runtime.barrier", k);
        world.barrier();
      }
      if (rank == 0) {
        const double now = now_s();
        out.step_s.push_back(now - last);
        last = now;
      }
      if (stop.load()) break;
    }
  });
  return out;
}

void gate_losses(const PhaseResult& p, Report& report) {
  const std::vector<double>& ref = p.ranks[0].loss;
  bool agree = true;
  for (const RankLog& r : p.ranks) agree = agree && r.loss == ref;
  report.gate(agree, "every replica reports the same global_loss each step");
  report.gate(!ref.empty() && std::isfinite(ref.back()) &&
                  ref.back() < ref.front(),
              "loss after the timed steps is finite and below the first");
  std::int64_t attempted = 0, applied = 0;
  for (const RankLog& r : p.ranks) {
    attempted = std::max(attempted, r.attempted);
    applied = std::max(applied, r.applied);
  }
  report.attempted += attempted;
  report.failed += attempted - applied;
  report.gate(attempted == applied, "every step is applied");
}

}  // namespace

void run_train(const Args& args, Report& report) {
  // Four rank threads, one pool lane each: ranks + lanes - 1 = 4 threads.
  core::set_threads(1);
  report.fact("ranks", std::to_string(kTrainRanks));
  report.fact("pool_lanes", std::to_string(core::num_threads()));
  report.fact("transport", "inproc");
  const model::MoEModelConfig config = training_model_config();
  const double tokens_per_step =
      static_cast<double>(kTrainRanks * kSeqsPerRank * config.seq_len);

  Tracer::set_enabled(false);
  std::vector<double> setups;
  const int setup_only = args.trace ? 0 : kSetupRepeats - 1;
  for (int i = 0; i < setup_only; ++i)
    setups.push_back(run_phase(args.seed, 0.0, false).setup_s);
  // A traced run makes an untraced and a traced pass of half the length
  // each, so both kinds of run take about the same time.
  const double pass_s = args.trace ? args.seconds / 2 : args.seconds;
  const PhaseResult timed = run_phase(args.seed, pass_s, false);
  setups.push_back(timed.setup_s);
  gate_losses(timed, report);

  if (!args.trace) {
    // Tail percentiles are windowed over the step index (common.hpp).
    std::vector<double> calls;
    std::vector<Timed> timed_calls, timed_steps;
    for (const RankLog& r : timed.ranks) {
      calls.insert(calls.end(), r.call_s.begin(), r.call_s.end());
      for (std::size_t k = 0; k < r.call_s.size(); ++k)
        timed_calls.push_back({static_cast<double>(k), r.call_s[k]});
    }
    for (std::size_t k = 0; k < timed.step_s.size(); ++k)
      timed_steps.push_back({static_cast<double>(k), timed.step_s[k]});
    double wall = 0.0;
    std::int64_t met = 0;
    for (const double s : timed.step_s) {
      wall += s;
      if (s <= kStepLimitS) ++met;
    }
    const auto steps = static_cast<std::int64_t>(timed.step_s.size());
    const auto n_calls = static_cast<std::int64_t>(calls.size());
    report.add("setup_s", median(setups), "s",
               static_cast<std::int64_t>(setups.size()));
    report.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    report.add("tok_s", tokens_per_step * static_cast<double>(steps) / wall,
               "tok/s", steps);
    report.add("first_p50_ms", ms(quantile(timed.step_s, 0.50)), "ms", steps);
    report.add("first_p90_ms", ms(windowed_quantile(timed_steps, 0.90)), "ms",
               steps);
    report.add("gap_p50_ms", ms(quantile(calls, 0.50)), "ms", n_calls);
    report.add("gap_p90_ms", ms(windowed_quantile(timed_calls, 0.90)), "ms",
               n_calls);
    report.add("goodput_rps", static_cast<double>(met) / wall, "1/s", steps);
    return;
  }

  Tracer::clear();
  Tracer::set_enabled(true);
  const PhaseResult traced = run_phase(args.seed, pass_s, true);
  Tracer::set_enabled(false);
  const std::vector<ThreadSpans> spans = Tracer::collect();
  gate_losses(traced, report);
  {
    const std::vector<double>& a = timed.ranks[0].loss;
    const std::vector<double>& b = traced.ranks[0].loss;
    const std::size_t n = std::min(a.size(), b.size());
    bool same = n > 1;
    for (std::size_t i = 0; i < n; ++i) same = same && a[i] == b[i];
    report.gate(same,
                "traced replay losses equal the untraced train_step losses "
                "bitwise");
  }

  const SelfTimes st = self_times(spans);
  const auto self_ms = [&](const char* name) {
    const auto it = st.self_samples.find(name);
    if (it == st.self_samples.end()) return std::make_pair(0.0, std::int64_t{0});
    std::vector<double> v = it->second;
    for (double& x : v) x *= 1e3;
    return std::make_pair(median(v), static_cast<std::int64_t>(v.size()));
  };
  const auto add_self = [&](const char* metric, const char* span) {
    const auto [v, n] = self_ms(span);
    report.add(metric, v, "ms", n);
  };
  add_self("parallel.forward_ms", "parallel.forward");
  add_self("parallel.backward_ms", "parallel.backward");
  add_self("parallel.sync_gradients_ms", "parallel.sync_gradients");
  add_self("nn.loss_ms", "nn.loss");
  add_self("train.optimizer_ms", "train.optimizer");
  add_self("collectives.loss_allreduce_ms", "collectives.loss_allreduce");
  add_self("runtime.barrier_ms", "runtime.barrier");

  std::vector<double> a2a;
  std::int64_t demanded = 0, dropped = 0;
  CommCounters sum;
  std::vector<double> wait_per_step;
  for (const RankLog& r : traced.ranks) {
    for (const double s : r.alltoall_s) a2a.push_back(ms(s));
    demanded += r.demanded;
    dropped += r.dropped;
    for (const CommCounters& c : r.comm) {
      sum.allreduce_bytes += c.allreduce_bytes;
      sum.alltoallv_bytes += c.alltoallv_bytes;
      sum.msgs += c.msgs;
      wait_per_step.push_back(ms(c.recv_wait_s));
    }
  }
  const auto steps = static_cast<double>(traced.ranks[0].comm.size());
  report.add("moe.alltoall_ms", median(a2a), "ms",
             static_cast<std::int64_t>(a2a.size()));
  report.add("moe.dropped_frac",
             demanded > 0 ? static_cast<double>(dropped) /
                                static_cast<double>(demanded)
                          : 0.0,
             "frac", demanded);
  report.add("collectives.allreduce_bytes",
             static_cast<double>(sum.allreduce_bytes) / steps, "B/step",
             static_cast<std::int64_t>(steps));
  report.add("collectives.alltoallv_bytes",
             static_cast<double>(sum.alltoallv_bytes) / steps, "B/step",
             static_cast<std::int64_t>(steps));
  report.add("collectives.msgs", static_cast<double>(sum.msgs) / steps,
             "msgs/step", static_cast<std::int64_t>(steps));
  report.add("runtime.recv_wait_ms", median(wait_per_step), "ms",
             static_cast<std::int64_t>(wait_per_step.size()));

  const auto train_step = st.total_s.find("train.step");
  const auto train_self = st.self_s.find("train.step");
  report.add("harness.unattributed_frac",
             train_step == st.total_s.end()
                 ? 0.0
                 : train_self->second / train_step->second,
             "frac", static_cast<std::int64_t>(steps));
  report.add("harness.trace_overhead_frac",
             median(traced.step_s) / median(timed.step_s) - 1.0, "frac",
             static_cast<std::int64_t>(traced.step_s.size()));
  const double err = reconcile(spans, "train.step");
  report.add("harness.reconcile_err_frac", err, "frac",
             static_cast<std::int64_t>(steps));
  report.gate(err <= 0.01,
              "train-step self times add up to the step's wall time");
  if (!args.trace_path.empty()) Tracer::write_chrome_json(args.trace_path);
}

}  // namespace pb
