//! `search_session`: a restructuring session. For each (Figure 7 kernel,
//! machine, eval point) triple it runs a cold e-graph search
//! (`presage_opt::search_cached`, shipped defaults, fresh
//! `PredictionCache`) and then a warm re-search of the same triple on the
//! same cache — the time to choose a variant.

use crate::stats::{self, Report};
use crate::trace::Tracer;
use crate::{cold, Checked, STREAM_SESSION, STREAM_WARM};
use presage_core::aggregate::AggregateOptions;
use presage_core::predictor::Predictor;
use presage_core::{place_block, subroutine_lower_bound, PlaceOptions};
use presage_frontend::Subroutine;
use presage_machine::MachineDesc;
use presage_opt::{
    search_cached, PredictionCache, SearchConfig, SearchOptions, SearchResult, Transform,
};
use presage_symbolic::memo::take_thread_stats;
use presage_symbolic::Symbol;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Values the session binds `n` to.
const EVAL_POINTS: [f64; 8] = [50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0];
/// Values the set-up's warm-up searches bind `n` to, disjoint from
/// [`EVAL_POINTS`].
const WARM_POINTS: [f64; 7] = [75.0, 150.0, 300.0, 750.0, 1500.0, 3000.0, 7500.0];

pub struct Session {
    /// Each kernel's source and parsed form.
    kernels: Vec<(&'static str, Subroutine)>,
    predictors: Vec<Predictor>,
}

/// The session's kernels: Figure 7's F1–F7. Matmul, Jacobi and RB are
/// left out: with the shipped defaults one cold search of each takes
/// seconds, so a run could not collect enough searches for a p90.
pub fn new_session(machines: &[MachineDesc]) -> Result<Session, String> {
    let kernels = presage_bench::kernels::figure7()
        .into_iter()
        .filter(|k| k.name.starts_with('F'))
        .map(|k| {
            presage_opt::parse_subroutine(k.source)
                .map(|sub| (k.source, sub))
                .map_err(|e| format!("{}: {e}", k.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let predictors = machines.iter().map(|m| Predictor::new(m.clone())).collect();
    Ok(Session {
        kernels,
        predictors,
    })
}

/// Set-up as a user pays it for this workload: the session, warmed by a
/// depth-1 search of every kernel on every machine at every point of
/// [`WARM_POINTS`], in a seeded order. Every set-up does the same work,
/// so set-ups differ only in host time.
pub fn set_up(machines: &[MachineDesc], seed: u64, rep: u64) -> Result<Session, String> {
    let s = new_session(machines)?;
    let mut warm = Vec::new();
    for kernel in 0..s.kernels.len() {
        for machine in 0..s.predictors.len() {
            for n in WARM_POINTS {
                warm.push(Triple { kernel, machine, n });
            }
        }
    }
    crate::rng::Rng::new(seed, STREAM_WARM + rep).shuffle(&mut warm);
    for t in warm {
        let config = config(t.n, Depth::One);
        search_cached(
            &s.kernels[t.kernel].1,
            &s.predictors[t.machine],
            &config,
            &PredictionCache::new(),
        );
    }
    presage_symbolic::epoch::advance();
    Ok(s)
}

/// One (kernel, machine, eval point) search and its re-search.
#[derive(Clone, Copy)]
struct Triple {
    kernel: usize,
    machine: usize,
    n: f64,
}

/// What one searched triple produced, kept for the oracle pass.
struct Outcome {
    triple: Triple,
    best: Subroutine,
    best_expr: String,
    warm_expr: String,
    cold: SearchResult,
    warm: SearchResult,
}

/// Search depth: the shipped default, or 1 for the small companion
/// session other workloads run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    Default,
    One,
}

fn config(n: f64, depth: Depth) -> SearchConfig {
    let mut options = SearchOptions {
        eval_point: HashMap::from([("n".to_string(), n)]),
        ..SearchOptions::default()
    };
    if depth == Depth::One {
        options.max_depth = 1;
    }
    SearchConfig {
        options,
        ..SearchConfig::default()
    }
}

/// Round `r` of the seeded session order: every kernel × machine once,
/// in shuffled order. Each pair's eval point steps through
/// [`EVAL_POINTS`] from round to round, from a seeded start, so every
/// round spreads its pairs evenly over the eval points and runs see the
/// same mix whatever their seed.
fn round(s: &Session, rng: &mut crate::rng::Rng, r: usize) -> Vec<Triple> {
    let mut triples = Vec::new();
    for kernel in 0..s.kernels.len() {
        for machine in 0..s.predictors.len() {
            let pair = kernel * s.predictors.len() + machine;
            triples.push(Triple {
                kernel,
                machine,
                n: EVAL_POINTS[(pair + r) % EVAL_POINTS.len()],
            });
        }
    }
    rng.shuffle(&mut triples);
    triples
}

struct Timings {
    depth: Depth,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    /// Predicted speedup of every cold search's winner.
    speedups: Vec<f64>,
    /// Outcomes not dropped after the oracle pass.
    outcomes: Vec<Outcome>,
}

impl Timings {
    fn new(depth: Depth) -> Timings {
        Timings {
            depth,
            cold_ms: Vec::new(),
            warm_ms: Vec::new(),
            speedups: Vec::new(),
            outcomes: Vec::new(),
        }
    }
}

fn search_triple(
    s: &Session,
    t: Triple,
    depth: Depth,
    tracer: Option<&mut Tracer>,
    into: &mut Timings,
) {
    let (_, sub) = &s.kernels[t.kernel];
    let predictor = &s.predictors[t.machine];
    let config = config(t.n, depth);
    let cache = PredictionCache::new();
    let (cold, warm, cold_ns, warm_ns) = match tracer {
        Some(tr) => {
            tr.begin_request();
            let t0 = Instant::now();
            let cold = tr.span("optimizer.search", |_| {
                search_cached(sub, predictor, &config, &cache)
            });
            let t1 = Instant::now();
            let warm = tr.span("optimizer.research", |_| {
                search_cached(sub, predictor, &config, &cache)
            });
            let t2 = Instant::now();
            (cold, warm, t1 - t0, t2 - t1)
        }
        None => {
            let t0 = Instant::now();
            let cold = search_cached(sub, predictor, &config, &cache);
            let t1 = Instant::now();
            let warm = search_cached(sub, predictor, &config, &cache);
            let t2 = Instant::now();
            (cold, warm, t1 - t0, t2 - t1)
        }
    };
    into.cold_ms.push(cold_ns.as_secs_f64() * 1e3);
    into.warm_ms.push(warm_ns.as_secs_f64() * 1e3);
    into.speedups.push(cold.speedup());
    into.outcomes.push(Outcome {
        triple: t,
        best: cold.best.clone(),
        best_expr: cold.best_expr.to_string(),
        warm_expr: warm.best_expr.to_string(),
        cold,
        warm,
    });
}

/// The untimed oracle pass: every winner's cost must equal a fresh
/// prediction of the winner, and the warm re-search must agree with the
/// cold search.
fn verify(machines: &[MachineDesc], outcomes: &[Outcome]) -> Checked {
    let fresh: Vec<Predictor> = machines.iter().map(|m| Predictor::new(m.clone())).collect();
    let mut checked = Checked::default();
    for o in outcomes {
        checked.attempted += 1;
        match fresh[o.triple.machine].predict_subroutine_cost(&o.best) {
            Ok(expr) if expr.to_string() == o.best_expr && o.warm_expr == o.best_expr => {
                checked.ok += 1
            }
            Ok(_) => {}
            Err(_) => checked.failed += 1,
        }
    }
    checked
}

fn report(t: &Timings, out: &mut Report) -> Result<(), String> {
    out.put_pct("search_ms_p50", &t.cold_ms, 0.50, "ms")?;
    out.put_pct("search_ms_p90", &t.cold_ms, 0.90, "ms")?;
    out.put_pct("research_ms_p50", &t.warm_ms, 0.50, "ms")?;
    out.put("search_speedup_geo", stats::geomean(&t.speedups), "x");
    out.note(format!(
        "search: {} triples, {:?} depth, eval points n in {EVAL_POINTS:?}",
        t.cold_ms.len(),
        t.depth,
    ));
    Ok(())
}

fn optimizer_counts(t: &Timings, out: &mut Report) {
    let (mut evaluated, mut pruned, mut merged, mut rejected) = (0usize, 0usize, 0usize, 0usize);
    let (mut hits, mut lookups) = (0u64, 0u64);
    for o in &t.outcomes {
        evaluated += o.cold.evaluated;
        pruned += o.cold.pruned_variants;
        merged += o.cold.merged_variants;
        rejected += o.cold.rejected_variants;
        hits += o.warm.cache_hits;
        lookups += o.warm.cache_hits + o.warm.cache_misses;
    }
    let explored = (evaluated + pruned + merged + rejected) as f64;
    let searches = t.outcomes.len() as f64;
    out.put(
        "optimizer.evaluated",
        stats::frac(evaluated as f64, searches),
        "count",
    );
    out.put(
        "optimizer.pruned_frac",
        stats::frac(pruned as f64, explored),
        "frac",
    );
    out.put(
        "optimizer.merged_frac",
        stats::frac(merged as f64, explored),
        "frac",
    );
    out.put(
        "optimizer.useful_frac",
        stats::frac(evaluated as f64, explored),
        "frac",
    );
    out.put(
        "optimizer.cache_hit_frac",
        stats::frac(hits as f64, lookups as f64),
        "frac",
    );
}

/// Every depth-1 move of the default catalog on `sub`.
fn moves(sub: &Subroutine) -> Vec<(Vec<usize>, Transform)> {
    let opts = SearchOptions::default();
    let mut out = Vec::new();
    for path in presage_opt::loop_paths(sub) {
        for &k in &opts.unroll_factors {
            out.push((path.clone(), Transform::Unroll(k)));
        }
        for &s in &opts.tile_sizes {
            out.push((path.clone(), Transform::Tile(s)));
        }
        for t in [
            Transform::Interchange,
            Transform::Fuse,
            Transform::Distribute,
        ] {
            out.push((path.clone(), t));
        }
    }
    out
}

/// Per-layer probes on the session's own programs: parse each kernel,
/// apply and key every depth-1 move, and translate, aggregate, bound and
/// place every distinct winner.
fn probes(s: &Session, machines: &[MachineDesc], t: &Timings, out: &mut Report, tr: &mut Tracer) {
    for (source, _) in &s.kernels {
        tr.begin_request();
        let _ = tr.span("frontend.parse", |_| presage_frontend::parse(source));
    }
    for (_, sub) in &s.kernels {
        tr.begin_request();
        for (path, transform) in moves(sub) {
            let variant = tr.span("optimizer.transform", |_| {
                presage_opt::transformed(sub, &path, &transform)
            });
            if let Ok(v) = variant {
                let _ = tr.span("optimizer.structural_key", |_| {
                    presage_opt::structural_key(&v)
                });
            }
        }
    }
    let opts = AggregateOptions::default();
    let mut seen = std::collections::HashSet::new();
    let (mut place_ns, mut placed_ops, mut ops, mut blocks, mut subs) =
        (0u128, 0usize, 0usize, 0usize, 0usize);
    for o in &t.outcomes {
        if !seen.insert((o.triple.machine, o.best_expr.clone(), o.best.to_string())) {
            continue;
        }
        let machine = &machines[o.triple.machine];
        tr.begin_request();
        let Ok(symbols) = tr.span("frontend.sema", |_| {
            presage_frontend::sema::analyze(&o.best)
        }) else {
            continue;
        };
        let Ok(ir) = tr.span("translate.translate", |_| {
            presage_translate::translate(&o.best, &symbols, machine)
        }) else {
            continue;
        };
        subs += 1;
        ops += ir.op_count();
        blocks += cold::block_hashes(&ir).len();
        tr.span("core.aggregate", |_| {
            presage_core::aggregate::aggregate(&ir, machine, None, &opts)
        });
        if let Some(cache) = &machine.cache {
            tr.span("core.memcost", |_| {
                presage_core::memcost::mem_cost(&ir, cache, &opts)
            });
        }
        let bindings = HashMap::from([(Symbol::new("n"), o.triple.n)]);
        tr.span("core.bound", |_| {
            subroutine_lower_bound(&ir, machine, &opts, &bindings)
        });
        if let Some(block) = ir.innermost_block() {
            let start = Instant::now();
            std::hint::black_box(place_block(machine, block, PlaceOptions::default()));
            place_ns += start.elapsed().as_nanos();
            placed_ops += block.len();
        }
    }
    out.put("frontend.parse_us", tr.mean_us("frontend.parse"), "us");
    out.put("frontend.sema_us", tr.mean_us("frontend.sema"), "us");
    let bytes: usize = s.kernels.iter().map(|(source, _)| source.len()).sum();
    out.put(
        "frontend.src_bytes",
        bytes as f64 / s.kernels.len() as f64,
        "B",
    );
    out.put(
        "translate.translate_us",
        tr.mean_us("translate.translate"),
        "us",
    );
    out.put(
        "translate.ops_per_sub",
        stats::frac(ops as f64, subs as f64),
        "count",
    );
    out.put(
        "translate.blocks_per_sub",
        stats::frac(blocks as f64, subs as f64),
        "count",
    );
    out.put("core.aggregate_us", tr.mean_us("core.aggregate"), "us");
    out.put(
        "core.place_ns_per_op",
        stats::frac(place_ns as f64, placed_ops as f64),
        "ns",
    );
    out.put("core.memcost_us", tr.mean_us("core.memcost"), "us");
    out.put("core.bound_us", tr.mean_us("core.bound"), "us");
    out.put(
        "optimizer.transform_us",
        tr.mean_us("optimizer.transform"),
        "us",
    );
    out.put(
        "optimizer.structural_key_us",
        tr.mean_us("optimizer.structural_key"),
        "us",
    );
}

/// Cold searches needed for a reportable p90 (ten beyond it).
const MIN_SEARCHES: usize = 10 * stats::MIN_BEYOND + 5;

/// The session, run in slices that interleave with other phases.
pub struct SearchPhase<'a> {
    s: &'a Session,
    rng: crate::rng::Rng,
    /// The next round's number, and the current round's triples not
    /// searched yet.
    round: usize,
    pending: Vec<Triple>,
    t: Timings,
    /// What the oracle found so far.
    checked: Checked,
}

impl<'a> SearchPhase<'a> {
    pub fn new(s: &'a Session, seed: u64, depth: Depth) -> SearchPhase<'a> {
        let mut rng = crate::rng::Rng::new(seed, STREAM_SESSION);
        SearchPhase {
            s,
            round: rng.below(EVAL_POINTS.len()),
            rng,
            pending: Vec::new(),
            t: Timings::new(depth),
            checked: Checked::default(),
        }
    }

    /// Runs the oracle pass over the outcomes not checked yet, then
    /// drops them, so the run's footprint does not grow with its
    /// throughput.
    pub fn catch_up(&mut self, machines: &[MachineDesc]) {
        self.checked.add(verify(machines, &self.t.outcomes));
        self.t.outcomes.clear();
    }

    /// The next triple of the session's seeded order.
    fn next(&mut self) -> Triple {
        if self.pending.is_empty() {
            // A new round: retire the last one's arena garbage first.
            if !self.t.cold_ms.is_empty() {
                presage_symbolic::epoch::advance();
            }
            self.pending = round(self.s, &mut self.rng, self.round);
            self.round += 1;
        }
        self.pending.pop().expect("a round has triples")
    }

    fn next_triple(&mut self) {
        let t = self.next();
        search_triple(self.s, t, self.t.depth, None, &mut self.t);
    }

    /// Searches triples for `dur` (at least one).
    pub fn slice(&mut self, dur: Duration) {
        let start = Instant::now();
        loop {
            self.next_triple();
            if start.elapsed() >= dur {
                break;
            }
        }
    }

    /// Tops the session up to a reportable p90 and to the end of a
    /// round, so the timed mix does not depend on where the run stopped;
    /// reports, and runs the oracle pass.
    pub fn finish(mut self, machines: &[MachineDesc], out: &mut Report) -> Result<Checked, String> {
        while self.t.cold_ms.len() < MIN_SEARCHES || !self.pending.is_empty() {
            self.next_triple();
            // Between slices the other phases advance the epoch; with
            // the slices over, advance it here, so the memos do not grow
            // with the number of searches left in the round.
            presage_symbolic::epoch::advance();
        }
        report(&self.t, out)?;
        self.catch_up(machines);
        Ok(self.checked)
    }
}

/// The traced workload: the session's triples, each searched once
/// untraced and once with a span around each `search_cached` call, in
/// alternating order and after an epoch advance each, so both see the
/// same inputs and sample the same stretch of host time; then the
/// optimizer counters, the layer probes and the oracle pass.
pub fn traced(
    s: &Session,
    machines: &[MachineDesc],
    seed: u64,
    budget: Duration,
    out: &mut Report,
    tracer: &mut Tracer,
) -> Checked {
    let mut session = SearchPhase::new(s, seed, Depth::Default);
    let mut traced = Timings::new(Depth::Default);
    take_thread_stats();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed() < budget {
        let t = session.next();
        for traced_pass in [i % 2 == 1, i % 2 == 0] {
            presage_symbolic::epoch::advance();
            if traced_pass {
                search_triple(s, t, Depth::Default, Some(tracer), &mut traced);
            } else {
                search_triple(s, t, Depth::Default, None, &mut session.t);
            }
        }
        i += 1;
    }
    let memo = take_thread_stats();
    let untraced = session.t;
    let covered = tracer.covered_ns() as f64 / 1e6;
    let untraced_ms: f64 = untraced.cold_ms.iter().chain(&untraced.warm_ms).sum();
    let traced_ms: f64 = traced.cold_ms.iter().chain(&traced.warm_ms).sum();
    optimizer_counts(&untraced, out);
    probes(s, machines, &untraced, out, tracer);
    crate::put_memo(out, &memo);
    crate::put_arena(out, 0);
    out.put("trace.coverage_frac", covered / untraced_ms, "frac");
    out.put(
        "trace.overhead_pct",
        100.0 * (traced_ms / untraced_ms - 1.0),
        "%",
    );
    let mut checked = verify(machines, &untraced.outcomes);
    checked.add(verify(machines, &traced.outcomes));
    checked
}
