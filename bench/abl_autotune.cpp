// Extension (the paper's Section VI future work): auto-tuning.
//
// Two modes:
//
//   default   - model-based sweep: (kc, mc, nc) against the calibrated
//               timing model, compared with the analytic Eqs. (15)-(20)
//               solution (the original ablation);
//   --native  - the offline tuner. For each --sizes cube and each
//               precision it searches the (precision, shape-class) key
//               the cube falls in, unless ARMGEMM_TUNE_CACHE already
//               holds it (--retune searches anyway), and writes the
//               results to that file, which the library's tunable calls
//               read. A search times the anchor (tune::anchor, what a
//               key resolves to without the file) and its neighbourhood
//               through the public dgemm/sgemm on pinned contexts, with
//               the small path off, at m = n = the cube's size and k at
//               least every candidate's kc, in interleaved rounds (at
//               least three, more while ARMGEMM_TUNE_BUDGET_MS lasts). It
//               keeps the anchor unless a candidate's median time beats
//               the anchor's by more than the anchor's own spread.
//
// --json emits one machine-readable document on stdout instead of the
// human tables (CI parses it to build the tuning-cache artifact).
#include <algorithm>
#include <cstdio>
#include <deque>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/knobs.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/gemm.hpp"
#include "core/sgemm.hpp"
#include "model/cache_blocking.hpp"
#include "model/machine.hpp"
#include "obs/telemetry.hpp"
#include "sim/autotune.hpp"
#include "tune/cache_file.hpp"
#include "tune/tune.hpp"

namespace {

using ag::tune::Precision;
using ag::tune::TunedConfig;

std::string fmt_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

struct Candidate {
  const ag::Microkernel* kernel = nullptr;  // f64 only
  ag::BlockSizes bs;

  bool operator==(const Candidate& o) const {
    return kernel == o.kernel && bs.mr == o.bs.mr && bs.nr == o.bs.nr && bs.kc == o.bs.kc &&
           bs.mc == o.bs.mc && bs.nc == o.bs.nc;
  }
};

// The anchor first, then (f64) the host default and the paper's X-Gene
// solution (Eqs. 15-20) for each registered kernel shape, then kc, mc and
// nc halved and doubled around the anchor, rounded to the register grid.
std::vector<Candidate> candidates(Precision precision) {
  const TunedConfig anchor = ag::tune::anchor(precision);
  std::vector<Candidate> out{{anchor.kernel, anchor.block_sizes(1)}};
  const auto add = [&out](Candidate c) {
    c.bs.mc = std::max<ag::index_t>(c.bs.mr, c.bs.mc / c.bs.mr * c.bs.mr);
    c.bs.nc = std::max<ag::index_t>(c.bs.nr, c.bs.nc / c.bs.nr * c.bs.nr);
    if (c.bs.kc >= 8 && std::ranges::find(out, c) == out.end()) out.push_back(c);
  };
  if (precision == Precision::kF64) {
    for (const ag::KernelShape shape : {ag::KernelShape{8, 6}, {8, 4}, {12, 4}}) {
      const ag::Microkernel* kern = ag::find_best_microkernel(shape);
      if (kern == nullptr) continue;
      add({kern, ag::default_block_sizes(shape, 1)});
      add({kern, ag::model::solve_cache_blocking(ag::model::xgene(), shape, 1).blocks});
    }
  }
  for (ag::index_t ag::BlockSizes::*dim :
       {&ag::BlockSizes::kc, &ag::BlockSizes::mc, &ag::BlockSizes::nc}) {
    for (const int twice : {0, 1}) {
      Candidate c = out.front();
      c.bs.*dim = twice ? c.bs.*dim * 2 : c.bs.*dim / 2;
      add(c);
    }
  }
  return out;
}

double median_of(std::vector<double> v) {
  std::ranges::sort(v);
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

struct Search {
  Precision precision = Precision::kF64;
  std::int64_t size = 0;
  ag::obs::ShapeClass key;
  std::string status;  // "searched", "cached" (the file holds the key), "small"
  int candidates = 0, rounds = 0;
  double anchor_gflops = 0;
  TunedConfig winner;
  bool anchor_kept = true;
  double ms = 0;
};

// Times every candidate on an m = n = size problem deep enough for the
// largest kc, in interleaved rounds, and fills `s`.
template <typename T>
void search_key(Search* s, int threads, std::uint64_t* probes) {
  const std::vector<Candidate> cands = candidates(s->precision);
  ag::index_t k = s->size;
  for (const Candidate& c : cands) k = std::max(k, c.bs.kc);
  const ag::index_t n = s->size;
  std::vector<T> a(static_cast<std::size_t>(n * k)), b(a.size()),
      c(static_cast<std::size_t>(n * n));
  std::uint32_t seed = 12345u;
  for (std::vector<T>* v : {&a, &b, &c})
    for (T& x : *v) {
      seed = seed * 1664525u + 1013904223u;
      x = static_cast<T>(0.25 + 0.75 * static_cast<double>(seed >> 8) / (1u << 24));
    }
  std::deque<ag::Context> contexts;  // f64: one pinned context per candidate
  for (const Candidate& cand : cands) {
    if (cand.kernel == nullptr) continue;
    contexts.emplace_back(cand.kernel->name, threads).set_block_sizes(cand.bs);
  }
  const auto run = [&](std::size_t i) {
    if constexpr (std::is_same_v<T, double>) {
      ag::dgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, n, n, k, 1.0,
                a.data(), n, b.data(), k, 0.0, c.data(), n, contexts[i]);
    } else {
      ag::SgemmOptions o;
      o.threads = threads;
      o.kc = cands[i].bs.kc;
      o.mc = cands[i].bs.mc;
      o.nc = cands[i].bs.nc;
      ag::sgemm(ag::Layout::ColMajor, ag::Trans::NoTrans, ag::Trans::NoTrans, n, n, k, 1.0f,
                a.data(), n, b.data(), k, 0.0f, c.data(), n, o);
    }
  };

  // Warm-up: one untimed call each; the anchor's sets how many calls a
  // sample repeats, so a sample spans at least 2 ms.
  const ag::Timer search_timer;
  ag::Timer warm;
  run(0);
  const int reps = std::clamp(static_cast<int>(2e-3 / std::max(warm.seconds(), 1e-7)) + 1, 1,
                              1000);
  for (std::size_t i = 1; i < cands.size(); ++i) run(i);

  constexpr int kMinRounds = 3, kMaxRounds = 15;
  const double budget_s = static_cast<double>(ag::tune_budget_ms()) * 1e-3;
  std::vector<std::vector<double>> seconds(cands.size());
  int round = 0;
  for (; round < kMaxRounds && (round < kMinRounds || search_timer.seconds() < budget_s); ++round) {
    for (std::size_t j = 0; j < cands.size(); ++j) {
      const std::size_t i = (j + static_cast<std::size_t>(round)) % cands.size();
      ag::Timer t;
      for (int r = 0; r < reps; ++r) run(i);
      seconds[i].push_back(t.seconds() / reps);
      ++*probes;
    }
  }

  const auto [lo, hi] = std::ranges::minmax(seconds[0]);
  const double anchor_median = median_of(seconds[0]);
  std::size_t best = 0;
  double best_median = anchor_median;
  for (std::size_t i = 1; i < cands.size(); ++i) {
    const double m = median_of(seconds[i]);
    if (m < best_median) best = i, best_median = m;
  }
  if (anchor_median - best_median <= hi - lo) best = 0, best_median = anchor_median;

  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(k);
  s->candidates = static_cast<int>(cands.size());
  s->rounds = round;
  s->anchor_gflops = flops / anchor_median * 1e-9;
  s->anchor_kept = best == 0;
  s->winner.precision = s->precision;
  s->winner.kind = static_cast<int>(s->key.kind);
  s->winner.decade = s->key.decade;
  s->winner.kernel = cands[best].kernel;
  s->winner.kernel_name = cands[best].kernel != nullptr ? cands[best].kernel->name : "";
  s->winner.set_blocking(cands[best].bs);
  s->winner.gflops = flops / best_median * 1e-9;
  s->ms = search_timer.seconds() * 1e3;
}

int run_native(const ag::CliArgs& args, bool json) {
  const int threads = static_cast<int>(args.get_int("threads", 1));
  const std::vector<std::int64_t> sizes = agbench::size_list(args, {256, 512, 1024});
  const bool retune = args.get_bool("retune", false);
  const std::string path = ag::tune_cache_path();

  ag::tune::TuneCacheData file;
  file.fingerprint = ag::tune::host_fingerprint();
  const ag::tune::CacheLoadStatus load =
      path.empty() ? ag::tune::CacheLoadStatus::kMissing
                   : ag::tune::load_cache_file(path, file.fingerprint, &file);
  const auto held = [&file](Precision p, const ag::obs::ShapeClass& key) {
    return std::ranges::find_if(file.entries, [&](const TunedConfig& e) {
      return e.precision == p && e.kind == static_cast<int>(key.kind) &&
             e.decade == key.decade;
    });
  };

  // Keys are classified at the run-time small-path threshold; candidates
  // are timed with the small path off, so every one runs its blocking.
  std::vector<Search> searches;
  for (const Precision p : {Precision::kF64, Precision::kF32})
    for (const std::int64_t size : sizes) {
      Search s;
      s.precision = p;
      s.size = size;
      s.key = ag::obs::ShapeClass::classify(size, size, size);
      const bool seen = std::ranges::any_of(searches, [&](const Search& o) {
        return o.precision == p && o.key.index() == s.key.index();
      });
      if (seen) continue;
      s.status = s.key.kind == ag::obs::ShapeKind::kSmall ? "small"
                 : !retune && held(p, s.key) != file.entries.end() ? "cached"
                                                                   : "searched";
      searches.push_back(s);
    }
  std::uint64_t probes = 0;
  const std::string small_mnk = ag::knob_text(ag::Knob::kSmallMnk);
  ag::set_knob(ag::Knob::kSmallMnk, 0);
  for (Search& s : searches) {
    if (s.status != "searched") continue;
    if (s.precision == Precision::kF64)
      search_key<double>(&s, threads, &probes);
    else
      search_key<float>(&s, threads, &probes);
    const auto old = held(s.precision, s.key);
    if (old != file.entries.end()) file.entries.erase(old);
    file.entries.push_back(s.winner);
  }
  ag::set_knob(ag::Knob::kSmallMnk, small_mnk);
  const bool wrote = probes > 0 && ag::tune::write_cache_file(path, file);

  // What the library's tunable calls now resolve each size to.
  struct Row {
    Precision precision;
    std::int64_t size;
    const TunedConfig* cfg;
  };
  std::vector<Row> rows;
  for (const Precision p : {Precision::kF64, Precision::kF32})
    for (const std::int64_t size : sizes)
      rows.push_back({p, size, ag::tune::resolve(p, size, size, size, threads)});
  const ag::obs::TuneStats stats = ag::tune::stats();
  double search_ms = 0;
  for (const Search& s : searches) search_ms += s.ms;

  if (json) {
    ag::JsonWriter w;
    w.begin_object();
    w.key("schema").value("armgemm-autotune/2");
    w.key("native").value(true);
    w.key("mode").value(ag::tune_mode() == ag::kTuneModeOff ? "off" : "on");
    w.key("threads").value(threads);
    w.key("budget_ms").value(static_cast<std::int64_t>(ag::tune_budget_ms()));
    w.key("cache_path").value(path);
    w.key("cache_status").value(ag::tune::to_string(load));
    w.key("cache_saved").value(wrote);
    w.key("searches").begin_array();
    for (const Search& s : searches) {
      w.begin_object()
          .key("precision").value(ag::tune::to_string(s.precision))
          .key("size").value(s.size)
          .key("key").value(s.key.label())
          .key("status").value(s.status);
      if (s.status == "searched") {
        w.key("candidates").value(s.candidates)
            .key("rounds").value(s.rounds)
            .key("anchor_kept").value(s.anchor_kept)
            .key("anchor_gflops").value(s.anchor_gflops)
            .key("gflops").value(s.winner.gflops)
            .key("kernel").value(s.winner.kernel_name)
            .key("kc").value(s.winner.kc)
            .key("mc").value(s.winner.mc)
            .key("nc").value(s.winner.nc)
            .key("ms").value(s.ms);
      }
      w.end_object();
    }
    w.end_array();
    w.key("results").begin_array();
    for (const Row& r : rows) {
      w.begin_object()
          .key("precision").value(ag::tune::to_string(r.precision))
          .key("size").value(r.size);
      if (r.cfg) {
        w.key("kernel").value(r.cfg->kernel_name)
            .key("kc").value(r.cfg->kc)
            .key("mc").value(r.cfg->mc)
            .key("nc").value(r.cfg->nc)
            .key("source").value(ag::tune::to_string(r.cfg->source))
            .key("gflops").value(r.cfg->gflops);
      } else {
        w.key("source").value("off");
      }
      w.end_object();
    }
    w.end_array();
    w.key("stats")
        .begin_object()
        .key("probes_run").value(probes)
        .key("search_ms").value(search_ms)
        .key("cache_entries_loaded").value(stats.cache_entries_loaded)
        .key("cache_rejected").value(stats.cache_rejected)
        .end_object();
    w.end_object();
    std::cout << w.str() << "\n";
    return 0;
  }

  agbench::banner("Extension", "offline autotuner (interleaved timing through dgemm/sgemm)");
  std::cout << "\nthreads=" << threads << " budget=" << ag::tune_budget_ms()
            << "ms per key, cache=" << (path.empty() ? "(none: nothing is written)" : path)
            << " (" << ag::tune::to_string(load) << ")\n\n";
  ag::Table t({"precision", "size", "key", "search", "anchor Gflops", "kernel",
               "mr x nr x kc x mc x nc", "Gflops"});
  for (const Search& s : searches) {
    const bool searched = s.status == "searched";
    std::string note = s.status;
    if (searched)
      note = std::to_string(s.candidates) + " cands x " + std::to_string(s.rounds) +
             (s.anchor_kept ? " rounds, anchor kept" : " rounds, candidate won");
    t.add_row({ag::tune::to_string(s.precision), std::to_string(s.size), s.key.label(), note,
               searched ? fmt_fixed(s.anchor_gflops, 2) : "-",
               searched ? s.winner.kernel_name : "-",
               searched ? s.winner.block_sizes(1).to_string() : "-",
               searched ? fmt_fixed(s.winner.gflops, 2) : "-"});
  }
  agbench::emit(args, t);
  std::cout << "\nResolved by tunable calls:\n";
  ag::Table r({"precision", "size", "kernel", "mr x nr x kc x mc x nc", "source"});
  for (const Row& row : rows)
    r.add_row({ag::tune::to_string(row.precision), std::to_string(row.size),
               row.cfg ? row.cfg->kernel_name : "-",
               row.cfg ? row.cfg->block_sizes(1).to_string() : "-",
               row.cfg ? ag::tune::to_string(row.cfg->source) : "off"});
  agbench::emit(args, r);
  std::cout << "\nprobes=" << probes << " search_ms=" << fmt_fixed(search_ms, 1)
            << " cache_loaded=" << stats.cache_entries_loaded
            << " written=" << (wrote ? "yes" : "no") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ag::CliArgs args(argc, argv);
  const bool json = args.get_bool("json", false);
  if (args.get_bool("native", false)) return run_native(args, json);

  const int threads = static_cast<int>(args.get_int("threads", 1));
  ag::sim::TuneOptions opts;
  opts.sizes = agbench::size_list(args, {1024, 2048, 4096});
  const auto result =
      ag::sim::autotune_block_sizes(ag::model::xgene(), {8, 6}, threads, opts);

  if (json) {
    ag::JsonWriter w;
    w.begin_object();
    w.key("schema").value("armgemm-autotune/1");
    w.key("native").value(false);
    w.key("threads").value(threads);
    w.key("evaluated").value(static_cast<std::int64_t>(result.evaluated));
    w.key("top");
    w.begin_array();
    for (const auto& c : result.top) {
      w.begin_object();
      w.key("kc").value(static_cast<std::int64_t>(c.blocks.kc));
      w.key("mc").value(static_cast<std::int64_t>(c.blocks.mc));
      w.key("nc").value(static_cast<std::int64_t>(c.blocks.nc));
      w.key("avg_efficiency").value(c.avg_efficiency);
      w.end_object();
    }
    w.end_array();
    w.key("analytic");
    w.begin_object();
    w.key("kc").value(static_cast<std::int64_t>(result.analytic.blocks.kc));
    w.key("mc").value(static_cast<std::int64_t>(result.analytic.blocks.mc));
    w.key("nc").value(static_cast<std::int64_t>(result.analytic.blocks.nc));
    w.key("avg_efficiency").value(result.analytic.avg_efficiency);
    w.end_object();
    w.key("best");
    w.begin_object();
    w.key("kc").value(static_cast<std::int64_t>(result.best.blocks.kc));
    w.key("mc").value(static_cast<std::int64_t>(result.best.blocks.mc));
    w.key("nc").value(static_cast<std::int64_t>(result.best.blocks.nc));
    w.key("avg_efficiency").value(result.best.avg_efficiency);
    w.end_object();
    w.end_object();
    std::cout << w.str() << "\n";
    return 0;
  }

  agbench::banner("Extension", "auto-tuned vs analytic block sizes (future work)");
  std::cout << "\nEvaluated " << result.evaluated << " (kc, mc, nc) configurations at "
            << threads << " thread(s).\n\n";
  ag::Table t({"rank", "kc x mc x nc", "avg efficiency"});
  int rank = 1;
  for (const auto& c : result.top) {
    t.add_row({std::to_string(rank++),
               std::to_string(c.blocks.kc) + " x " + std::to_string(c.blocks.mc) + " x " +
                   std::to_string(c.blocks.nc),
               ag::Table::fmt_pct(c.avg_efficiency, 2)});
  }
  agbench::emit(args, t);

  std::cout << "\nAnalytic (Eqs. 15-20): " << result.analytic.blocks.to_string() << " at "
            << ag::Table::fmt_pct(result.analytic.avg_efficiency, 2) << "\n"
            << "Tuned winner:          " << result.best.blocks.to_string() << " at "
            << ag::Table::fmt_pct(result.best.avg_efficiency, 2) << "\n"
            << "Gap: " << ag::Table::fmt_pct(result.best.avg_efficiency -
                                                 result.analytic.avg_efficiency,
                                             2)
            << " — the analytic solution sits at (or within noise of) the tuned\n"
            << "optimum, supporting the paper's analytic methodology.\n";
  return 0;
}
