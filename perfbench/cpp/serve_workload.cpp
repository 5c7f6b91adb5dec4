// serve_chat and serve_longctx: an open-loop arrival schedule through
// serve::Engine with default EngineOptions.
//
// Every latency comes from the benchmark's own clock reads around
// Engine::step(), joined to Engine::results() by step number: a request's
// first token is produced by the step with index admit_step, its k-th by
// admit_step + k - 1. The engine's own wall-clock histograms are not used:
// their quantiles are factor-2 bucket estimates, and their TTFT clock
// starts at admission, so queue wait is missing from them.
#include <exception>
#include <map>
#include <memory>
#include <thread>
#include <type_traits>

#include "common.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "model/generate.hpp"
#include "models.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "trace.hpp"

namespace pb {
namespace {

using namespace bgl;

struct ServeSpec {
  std::int64_t prompt_lo, prompt_hi;  // inclusive
  // Output tokens drawn from [out_lo, out_hi]; with past_window, the tokens
  // that fill the window plus [out_lo, out_hi] window slides.
  std::int64_t out_lo, out_hi;
  bool past_window;
  double rate_rps;  // offered arrival rate
  bool poisson;     // Poisson arrivals, else one every 1/rate_rps seconds
};

// serve_chat: short prompts and outputs that keep every sequence inside the
// 64-token window (8 + 32 < 64). Poisson arrivals at 5 req/s, about a fifth
// of the engine's capacity (about 26 req/s, 520 output tok/s, on a 4-core
// x86 host): requests still queue and share batches, while the open loop's
// amplification of the host's own speed swings stays small enough for
// steady tail latencies. A decode step costs about one row's forward per
// row, so inter-token gaps cluster at 1, 2, 3... rows' cost; at this rate
// the gap p90 falls inside the 2-row cluster. At a third of capacity it
// falls on the edge between the 2- and 3-row clusters and jumps between
// them from run to run.
constexpr ServeSpec kChat{1, 8, 8, 32, false, 5.0, true};
// serve_longctx: prompts of half to a full window, and outputs that carry
// every sequence 1 to 6 tokens past it, so each one pays the prompt prefill
// and window re-prefills. Arrivals at a fixed low rate, one per second,
// well above the longest request's service time (~0.6 s), so the steps
// measure those costs rather than chance overlaps, even on a slowed host.
constexpr ServeSpec kLongctx{32, 64, 1, 6, true, 1.0, false};

// SLO limits for goodput, fixed from the parent's distributions before any
// optimisation: the gap limit sits above serve_chat's ITL p99 and below
// the ~100 ms window-slide step, so slides show as lost goodput.
constexpr double kTtftLimitS = 0.250;
constexpr double kGapLimitS = 0.050;

constexpr int kSetupRepeats = 9;
// One pool lane per replica: at this model size an engine's capacity is
// highest with a single lane (about 520 output tok/s against 440-470 with
// 2 or 4 lanes on a 4-core host). Replicas + lanes - 1 <= nproc threads.
constexpr int kServeLanes = 1;
constexpr int kMaxReplicas = 4;
constexpr int kOracleChecks = 3;  // per replica

struct Planned {
  serve::Request req;
  double due = 0.0;  // seconds after the schedule starts
};

/// The workload's requests. The (prompt, output) length pairs are a fixed
/// stratified set, so every seed offers the same work; the seed picks their
/// order, the arrival times when they are Poisson (a Poisson process
/// conditioned on the count), prompt tokens and sampler seeds.
std::vector<Planned> make_schedule(const ServeSpec& spec, std::uint64_t seed,
                                   double seconds, std::int64_t id_base) {
  const model::MoEModelConfig config = serving_model_config();
  const std::int64_t vocab = config.vocab;
  const std::int64_t window = config.seq_len;
  const auto n = std::max<std::int64_t>(
      1, std::llround(spec.rate_rps * seconds));
  Rng rng(seed);
  std::vector<std::pair<std::int64_t, std::int64_t>> shapes;
  const std::int64_t p_span = spec.prompt_hi - spec.prompt_lo + 1;
  const std::int64_t o_span = spec.out_hi - spec.out_lo + 1;
  for (std::int64_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    double v = 0.5 + 0.6180339887498949 * static_cast<double>(i);
    v -= std::floor(v);
    const std::int64_t prompt =
        spec.prompt_lo + static_cast<std::int64_t>(u * static_cast<double>(p_span));
    std::int64_t out =
        spec.out_lo + static_cast<std::int64_t>(v * static_cast<double>(o_span));
    // k slides: the step after the one that fills the window re-prefills.
    if (spec.past_window) out += window + 1 - prompt;
    shapes.emplace_back(prompt, out);
  }
  for (std::int64_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::int64_t>(
        rng.uniform_index(static_cast<std::uint64_t>(i + 1)));
    std::swap(shapes[static_cast<std::size_t>(i)],
              shapes[static_cast<std::size_t>(j)]);
  }
  std::vector<double> due(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < due.size(); ++i)
    due[i] = spec.poisson ? rng.uniform() * seconds
                          : (static_cast<double>(i) + 0.5) / spec.rate_rps;
  std::sort(due.begin(), due.end());

  std::vector<Planned> out;
  for (std::int64_t i = 0; i < n; ++i) {
    Planned p;
    p.req.id = id_base + i;
    const auto [prompt_len, out_len] = shapes[static_cast<std::size_t>(i)];
    for (std::int64_t t = 0; t < prompt_len; ++t)
      p.req.prompt.push_back(static_cast<std::int32_t>(
          rng.uniform_index(static_cast<std::uint64_t>(vocab))));
    p.req.options.max_new_tokens = out_len;
    p.req.options.temperature = 1.0;
    p.req.options.top_k = 8;
    p.req.seed = rng.next_u64();
    p.due = due[static_cast<std::size_t>(i)];
    out.push_back(std::move(p));
  }
  return out;
}

/// A model and an engine, warmed up: the state in which timing starts.
struct Served {
  std::unique_ptr<model::MoETransformerLM> lm;
  std::unique_ptr<serve::Engine> engine;
};

Served set_up(const ServeSpec& spec, std::uint64_t seed) {
  Served s;
  Rng model_rng(kServingModelSeed);
  s.lm = std::make_unique<model::MoETransformerLM>(serving_model_config(),
                                                   model_rng);
  s.engine = std::make_unique<serve::Engine>(*s.lm, serve::EngineOptions{});
  // Warm-up: one batch of the workload's prompts, two tokens each (a
  // prefill and a decode or slide step), ids below zero.
  const auto warm =
      make_schedule(spec, seed ^ 0x5eedull, 4.0 / spec.rate_rps, -1000);
  for (const Planned& p : warm) {
    serve::Request r = p.req;
    r.options.max_new_tokens = 2;
    r.arrival_step = s.engine->current_step();
    s.engine->submit(std::move(r));
  }
  s.engine->run();
  return s;
}

/// What one pass over the schedule observed.
struct Observed {
  std::int64_t first_step = 0;         // engine step of the first timed step
  std::vector<double> step_start;      // by step - first_step
  std::vector<double> step_end;
  std::vector<std::int64_t> blocks_in_use;  // sampled after each step
  std::vector<double> submit;          // by request index
  double t0 = 0.0;                     // schedule start
  double t_end = 0.0;                  // end of the last step
};

Observed drive(serve::Engine& engine, const std::vector<Planned>& plan,
               double t0) {
  Observed o;
  o.first_step = engine.current_step();
  o.submit.assign(plan.size(), 0.0);
  o.t0 = t0;
  std::size_t next = 0;
  while (next < plan.size() || engine.active() + engine.queued() > 0) {
    const std::int64_t step = engine.current_step();
    Span iteration("harness.iteration", step);
    {
      Span submit("harness.submit");
      const double now = now_s();
      while (next < plan.size() && o.t0 + plan[next].due <= now) {
        serve::Request r = plan[next].req;
        r.arrival_step = step;
        engine.submit(std::move(r));
        o.submit[next] = now;
        ++next;
      }
    }
    if (engine.active() + engine.queued() == 0) {
      Span idle("harness.idle");
      wait_until_s(o.t0 + plan[next].due);
      continue;
    }
    const double start = now_s();
    {
      Span s("serve.step", step);
      engine.step();
    }
    o.step_end.push_back(now_s());
    o.step_start.push_back(start);
    o.blocks_in_use.push_back(engine.kv().allocator().in_use());
  }
  o.t_end = o.step_end.empty() ? o.t0 : o.step_end.back();
  return o;
}

/// Joins the observed step times to the engine's results.
struct Joined {
  // by request index
  std::vector<double> ttft;
  std::vector<double> queue_wait;
  std::vector<double> mean_gap;
  std::vector<double> gaps;  // every inter-token gap of every request
  // the same TTFTs and gaps with their due times and step ends
  std::vector<Timed> timed_ttft, timed_gaps;
  std::vector<double> late;
  std::int64_t tokens = 0;
  std::int64_t completed = 0;  // right token count, right step count
  // by step - first_step
  std::vector<int> rows;
  std::vector<int> prefill_rows, slide_rows;
  std::vector<int> waiting;  // visible requests left queued by the step
};

Joined join(const serve::Engine& engine, const std::vector<Planned>& plan,
            const Observed& o, std::int64_t window, Report& report) {
  std::map<std::int64_t, const serve::RequestResult*> by_id;
  for (const serve::RequestResult& r : engine.results())
    if (r.id >= 0) by_id[r.id] = &r;
  Joined j;
  const std::size_t steps = o.step_end.size();
  j.rows.assign(steps, 0);
  j.prefill_rows.assign(steps, 0);
  j.slide_rows.assign(steps, 0);
  j.waiting.assign(steps, 0);
  const auto at = [&](std::int64_t step) {
    return static_cast<std::size_t>(step - o.first_step);
  };
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    const auto it = by_id.find(p.req.id);
    if (it == by_id.end()) continue;
    const serve::RequestResult& r = *it->second;
    const auto prompt = static_cast<std::int64_t>(p.req.prompt.size());
    const std::int64_t out = p.req.options.max_new_tokens;
    if (static_cast<std::int64_t>(r.tokens.size()) != prompt + out ||
        r.finish_step - r.admit_step + 1 != out ||
        r.admit_step < o.first_step || at(r.finish_step) >= steps)
      continue;
    ++j.completed;
    j.tokens += out;
    const double due = o.t0 + p.due;
    j.late.push_back(o.submit[i] - due);
    j.ttft.push_back(o.step_end[at(r.admit_step)] - due);
    j.timed_ttft.push_back({due, j.ttft.back()});
    j.queue_wait.push_back(o.step_start[at(r.admit_step)] - due);
    for (std::int64_t s = r.admit_step + 1; s <= r.finish_step; ++s) {
      j.gaps.push_back(o.step_end[at(s)] - o.step_end[at(s - 1)]);
      j.timed_gaps.push_back({o.step_end[at(s)], j.gaps.back()});
    }
    j.mean_gap.push_back(
        out > 1 ? (o.step_end[at(r.finish_step)] - o.step_end[at(r.admit_step)]) /
                      static_cast<double>(out - 1)
                : 0.0);
    for (std::int64_t s = r.arrival_step; s < r.admit_step; ++s)
      if (s >= o.first_step) ++j.waiting[at(s)];
    // Row kind from public results: the admit step prefills the prompt;
    // a later step re-prefills the window once the cache is full.
    for (std::int64_t s = r.admit_step; s <= r.finish_step; ++s) {
      const std::int64_t k = s - r.admit_step;
      ++j.rows[at(s)];
      if (k == 0)
        ++j.prefill_rows[at(s)];
      else if (prompt + k - 1 >= window)
        ++j.slide_rows[at(s)];
    }
  }
  report.attempted += static_cast<std::int64_t>(plan.size());
  report.failed += static_cast<std::int64_t>(plan.size()) - j.completed;
  report.gate(j.completed == static_cast<std::int64_t>(plan.size()),
              "every submitted request completes with its token count");
  return j;
}

/// Token-for-token check of a deterministic sample against generate() run
/// alone, outside any timed region. Returns the mismatches.
int check_oracle(model::MoETransformerLM& lm, const serve::Engine& engine,
                 const std::vector<Planned>& plan) {
  std::map<std::int64_t, const serve::RequestResult*> by_id;
  for (const serve::RequestResult& r : engine.results()) by_id[r.id] = &r;
  const std::size_t stride =
      std::max<std::size_t>(1, plan.size() / kOracleChecks);
  int mismatches = 0;
  for (std::size_t i = 0; i < plan.size(); i += stride) {
    const serve::Request& req = plan[i].req;
    Rng rng(req.seed);
    const auto expect = model::generate(lm, req.prompt, req.options, rng);
    const auto it = by_id.find(req.id);
    if (it == by_id.end() || it->second->tokens != expect) ++mismatches;
  }
  return mismatches;
}

/// Runs fn(0) .. fn(n - 1) on n threads and rethrows the first failure.
template <typename Fn>
void on_threads(int n, Fn&& fn) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

/// One engine replica with its own model copy, schedule and registry.
struct Replica {
  Served served;
  std::vector<Planned> plan;
  std::unique_ptr<obs::Registry> registry;
  Observed observed;
  Joined joined;
};

}  // namespace

void run_serve(const Args& args, Report& report) {
  const bool chat = args.workload == "serve_chat";
  const ServeSpec& spec = chat ? kChat : kLongctx;
  const std::int64_t window = serving_model_config().seq_len;
  // Independent engine replicas, one per thread, each with its own model
  // copy, its own arrival schedule at the workload's rate and its own
  // registry: a load-balanced deployment. Pooling their requests averages
  // over the cores, whose speed on a shared host wanders independently.
  const int n = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, kMaxReplicas);
  core::set_threads(kServeLanes);
  report.fact("ranks", std::to_string(n));
  report.fact("pool_lanes", std::to_string(core::num_threads()));
  report.fact("transport", "none");

  // A traced run makes an untraced and a traced pass of half the length
  // each, so both kinds of run take about the same time.
  const double pass_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<std::unique_ptr<Replica>> reps;
  for (int i = 0; i < n; ++i) {
    reps.push_back(std::make_unique<Replica>());
    reps.back()->plan = make_schedule(
        spec, args.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(i),
        pass_s, std::int64_t{i} * 1'000'000);
  }

  const auto set_up_all = [&] {
    const double t = now_s();
    on_threads(n, [&](int i) {
      Replica& r = *reps[static_cast<std::size_t>(i)];
      r.served.engine.reset();  // the engine refers to the model
      r.served = set_up(spec, args.seed + static_cast<std::uint64_t>(i));
    });
    return now_s() - t;
  };
  // One pass over every replica's schedule from a common start.
  const auto pass = [&] {
    const double t0 = now_s() + 0.01;
    on_threads(n, [&](int i) {
      Replica& r = *reps[static_cast<std::size_t>(i)];
      r.registry = std::make_unique<obs::Registry>();
      obs::ScopedRegistry scoped(*r.registry);
      r.observed = drive(*r.served.engine, r.plan, t0);
    });
    std::vector<int> mismatches(static_cast<std::size_t>(n), 0);
    on_threads(n, [&](int i) {
      Replica& r = *reps[static_cast<std::size_t>(i)];
      mismatches[static_cast<std::size_t>(i)] =
          check_oracle(*r.served.lm, *r.served.engine, r.plan);
    });
    int bad = 0;
    double end = t0;
    for (int i = 0; i < n; ++i) {
      Replica& r = *reps[static_cast<std::size_t>(i)];
      r.joined = join(*r.served.engine, r.plan, r.observed, window, report);
      bad += mismatches[static_cast<std::size_t>(i)];
      end = std::max(end, r.observed.t_end);
      report.gate(r.registry->counter("serve.steps").value() ==
                      static_cast<std::int64_t>(r.observed.step_end.size()),
                  "the engine's serve.steps counter matches the steps driven");
    }
    report.failed += bad;
    report.gate(bad == 0,
                "sampled requests match model::generate() token for token");
    return end - t0;
  };
  const auto pooled = [&](auto Joined::*field) {
    std::remove_cvref_t<decltype(reps[0]->joined.*field)> all;
    for (const auto& r : reps)
      all.insert(all.end(), (r->joined.*field).begin(),
                 (r->joined.*field).end());
    return all;
  };

  // Untraced pass: the end-to-end metrics.
  Tracer::set_enabled(false);
  std::vector<double> setups;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i)
    setups.push_back(set_up_all());
  const double wall = pass();

  const std::vector<double> ttft = pooled(&Joined::ttft);
  const std::vector<double> gaps = pooled(&Joined::gaps);
  std::int64_t tokens = 0, met = 0, requests = 0;
  for (const auto& r : reps) {
    const Joined& j = r->joined;
    tokens += j.tokens;
    requests += static_cast<std::int64_t>(r->plan.size());
    for (std::size_t i = 0; i < j.ttft.size(); ++i)
      if (j.ttft[i] <= kTtftLimitS && j.mean_gap[i] <= kGapLimitS) ++met;
  }

  if (!args.trace) {
    const auto nt = static_cast<std::int64_t>(ttft.size());
    const auto ng = static_cast<std::int64_t>(gaps.size());
    report.add("setup_s", median(setups), "s", kSetupRepeats);
    report.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    report.add("tok_s", static_cast<double>(tokens) / wall, "tok/s", tokens);
    report.add("first_p50_ms", ms(quantile(ttft, 0.50)), "ms", nt);
    // Tail percentiles are windowed over the run's time (common.hpp).
    report.add("first_p90_ms",
               ms(windowed_quantile(pooled(&Joined::timed_ttft), 0.90)), "ms",
               nt);
    report.add("gap_p50_ms", ms(quantile(gaps, 0.50)), "ms", ng);
    report.add("gap_p90_ms",
               ms(windowed_quantile(pooled(&Joined::timed_gaps), 0.90)), "ms",
               ng);
    report.add("goodput_rps", static_cast<double>(met) / wall, "1/s",
               requests);
    return;
  }

  // Traced pass over the same schedules on fresh engines: the per-layer
  // metrics, from the benchmark's spans and the step classification.
  const auto per_row_decode = [&] {
    std::vector<double> v;
    for (const auto& r : reps) {
      const Observed& o = r->observed;
      const Joined& j = r->joined;
      for (std::size_t s = 0; s < o.step_end.size(); ++s)
        if (j.prefill_rows[s] == 0 && j.slide_rows[s] == 0 && j.rows[s] > 0)
          v.push_back((o.step_end[s] - o.step_start[s]) / j.rows[s]);
    }
    return median(v);
  };
  const double untraced_decode_row = per_row_decode();
  set_up_all();
  Tracer::clear();
  Tracer::set_enabled(true);
  pass();
  Tracer::set_enabled(false);
  const std::vector<ThreadSpans> spans = Tracer::collect();

  std::vector<double> decode_ms, prefill_ms, slide_ms;
  double decode_s = 0.0, prefill_s = 0.0, slide_s = 0.0;
  std::int64_t rows = 0, backpressure = 0, steps = 0, blocks_peak = 0,
               reserve_backpressure = 0;
  for (const auto& r : reps) {
    const Observed& o = r->observed;
    const Joined& j = r->joined;
    for (std::size_t s = 0; s < o.step_end.size(); ++s) {
      const double d = o.step_end[s] - o.step_start[s];
      if (j.slide_rows[s] > 0) {
        slide_ms.push_back(ms(d));
        slide_s += d;
      } else if (j.prefill_rows[s] > 0) {
        prefill_ms.push_back(ms(d));
        prefill_s += d;
      } else {
        decode_ms.push_back(ms(d));
        decode_s += d;
      }
      rows += j.rows[s];
      if (j.waiting[s] > 0) ++backpressure;
      blocks_peak = std::max(blocks_peak, o.blocks_in_use[s]);
    }
    steps += static_cast<std::int64_t>(o.step_end.size());
    reserve_backpressure +=
        r->registry->counter("serve.kv.reserve_backpressure").value();
  }
  const double step_s = decode_s + prefill_s + slide_s;
  const auto count = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  const auto med0 = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  const std::vector<double> queue_wait = pooled(&Joined::queue_wait);
  const std::vector<double> late = pooled(&Joined::late);
  report.add("serve.step_decode_ms", med0(decode_ms), "ms", count(decode_ms));
  report.add("serve.step_prefill_ms", med0(prefill_ms), "ms", count(prefill_ms));
  report.add("serve.step_slide_ms", med0(slide_ms), "ms", count(slide_ms));
  report.add("serve.decode_time_frac", decode_s / step_s, "frac", steps);
  report.add("serve.prefill_time_frac", prefill_s / step_s, "frac", steps);
  report.add("serve.slide_time_frac", slide_s / step_s, "frac", steps);
  report.add("serve.queue_wait_ms", ms(median(queue_wait)), "ms",
             count(queue_wait));
  report.add("serve.batch_occupancy",
             static_cast<double>(rows) / static_cast<double>(steps), "rows",
             steps);
  report.add("serve.backpressure_steps", static_cast<double>(backpressure),
             "count", steps);
  report.add("serve.kv_blocks_peak", static_cast<double>(blocks_peak),
             "count", steps);
  report.add("serve.kv_reserve_backpressure",
             static_cast<double>(reserve_backpressure), "count", n);
  report.add("harness.gen_late_p99_ms", ms(quantile(late, 0.99)), "ms",
             count(late));
  report.add("harness.trace_overhead_frac",
             per_row_decode() / untraced_decode_row - 1.0, "frac",
             count(decode_ms));
  const SelfTimes st = self_times(spans);
  report.add("harness.unattributed_frac",
             st.self_s.at("harness.iteration") /
                 st.total_s.at("harness.iteration"),
             "frac", st.count.at("harness.iteration"));
  const double err = reconcile(spans, "harness.iteration");
  report.add("harness.reconcile_err_frac", err, "frac", steps);
  report.gate(err <= 0.01,
              "engine-iteration self times add up to the iteration wall time");
  if (!args.trace_path.empty()) Tracer::write_chrome_json(args.trace_path);
}

}  // namespace pb
