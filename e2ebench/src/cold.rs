//! `cold_corpus`: never-before-seen generated subroutines, each predicted
//! once on every machine through `Predictor::predict_source` with one
//! shared `TranslationCache` — the compile-time cost of predicting new
//! code. The epoch is advanced (and stale translations evicted) every
//! [`ADVANCE_EVERY`] programs, as a long-lived compiler process must.

use crate::corpus;
use crate::stats::{self, Report};
use crate::trace::Tracer;
use crate::{Checked, STREAM_CORPUS, STREAM_WARM};
use presage_core::aggregate::{aggregate, AggregateOptions};
use presage_core::memcost::mem_cost;
use presage_core::predictor::{Prediction, Predictor};
use presage_core::{place_block, subroutine_lower_bound, PlaceOptions, TranslationCache};
use presage_machine::MachineDesc;
use presage_symbolic::memo::{take_thread_stats, MemoStats};
use presage_translate::ProgramIr;
use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const ADVANCE_EVERY: usize = 64;
/// Programs predicted by the warm-up pass of each set-up.
pub const WARM_PROGRAMS: usize = 200;

/// One predictor per machine, sharing a translation cache.
pub struct Predictors {
    pub cache: Arc<TranslationCache>,
    pub predictors: Vec<Predictor>,
}

impl Predictors {
    pub fn new(machines: &[MachineDesc]) -> Predictors {
        let cache = Arc::new(TranslationCache::new());
        let predictors = machines
            .iter()
            .map(|m| Predictor::new(m.clone()).with_translation_cache(cache.clone()))
            .collect();
        Predictors { cache, predictors }
    }

    /// Predicts `programs` on every machine, untimed.
    pub fn warm_up(&self, programs: &[String]) -> Result<(), String> {
        for src in programs {
            for p in &self.predictors {
                p.predict_source(src).map_err(|e| format!("warm-up: {e}"))?;
            }
        }
        advance(&self.cache);
        Ok(())
    }
}

/// Set-up as a user pays it for this workload: predictors over the
/// loaded machines and a warm-up on a draw disjoint from the corpus.
pub fn set_up(machines: &[MachineDesc], seed: u64, rep: u64) -> Result<Predictors, String> {
    let p = Predictors::new(machines);
    p.warm_up(&corpus::programs(
        seed,
        STREAM_WARM + rep,
        "w",
        WARM_PROGRAMS,
    ))?;
    Ok(p)
}

/// Advances the reclamation epoch and evicts translations it retired;
/// returns the polynomial slots reclaimed.
pub fn advance(cache: &TranslationCache) -> u64 {
    let report = presage_symbolic::epoch::advance();
    cache.evict_older_than(report.retire_before);
    report
        .reclaimed
        .iter()
        .filter(|e| e.name == "poly")
        .map(|e| e.reclaimed as u64)
        .sum()
}

/// Every subroutine's total cost, as `name=cost`, in source order.
pub fn cost_strings(preds: &[Prediction]) -> Vec<String> {
    preds
        .iter()
        .map(|p| format!("{}={}", p.name, p.total))
        .collect()
}

/// What one timed pass produced.
#[derive(Default)]
pub struct ColdRun {
    /// Programs predicted so far, and their total source bytes.
    pub programs: usize,
    pub src_bytes: usize,
    /// Timed programs the oracle has not checked yet, oldest first, each
    /// with its costs per machine.
    pub pending: Vec<(String, Vec<Vec<String>>)>,
    /// Per-prediction wall time, nanoseconds.
    pub pred_ns: Vec<f64>,
    /// Time inside `predict_source` and epoch advances, nanoseconds.
    pub busy_ns: f64,
    pub polys_reclaimed: u64,
    pub memo: MemoStats,
    pub hits: u64,
    pub misses: u64,
}

/// The cold pass, run in slices that interleave with other phases so
/// every phase samples the same stretch of host time.
pub struct ColdPhase<'a> {
    p: &'a Predictors,
    rng: crate::rng::Rng,
    pub run: ColdRun,
    /// Predictions per second of busy time, per slice.
    slice_rates: Vec<f64>,
}

impl<'a> ColdPhase<'a> {
    pub fn new(p: &'a Predictors, seed: u64) -> ColdPhase<'a> {
        ColdPhase {
            p,
            rng: crate::rng::Rng::new(seed, STREAM_CORPUS),
            run: ColdRun::default(),
            slice_rates: Vec::new(),
        }
    }

    /// The corpus program the next [`ColdPhase::predict`] call numbers
    /// `offset` places ahead.
    fn source(&mut self, offset: usize) -> String {
        corpus::program(&mut self.rng, &format!("c{}", self.run.programs + offset))
    }

    /// Predicts `src` on every machine; advances the epoch every
    /// [`ADVANCE_EVERY`] programs.
    fn predict(&mut self, src: String) {
        let (p, run) = (self.p, &mut self.run);
        let mut per_machine = Vec::with_capacity(p.predictors.len());
        for predictor in &p.predictors {
            let t = Instant::now();
            let result = predictor.predict_source(&src);
            let ns = t.elapsed().as_nanos() as f64;
            run.pred_ns.push(ns);
            run.busy_ns += ns;
            per_machine.push(match result {
                Ok(preds) => cost_strings(&preds),
                Err(e) => vec![format!("error: {e}")],
            });
        }
        run.programs += 1;
        run.src_bytes += src.len();
        run.pending.push((src, per_machine));
        if run.programs % ADVANCE_EVERY == 0 {
            let t = Instant::now();
            run.polys_reclaimed += advance(&p.cache);
            run.busy_ns += t.elapsed().as_nanos() as f64;
        }
    }

    /// Predicts fresh corpus programs on every machine for `dur` (at
    /// least one program).
    pub fn slice(&mut self, dur: Duration) {
        let p = self.p;
        let (hits0, misses0) = (p.cache.hits(), p.cache.misses());
        let (n0, busy0) = (self.run.pred_ns.len(), self.run.busy_ns);
        take_thread_stats();
        let start = Instant::now();
        loop {
            let src = self.source(0);
            self.predict(src);
            if start.elapsed() >= dur {
                break;
            }
        }
        let run = &mut self.run;
        run.memo = run.memo.merged(&take_thread_stats());
        run.hits += p.cache.hits() - hits0;
        run.misses += p.cache.misses() - misses0;
        let n = (run.pred_ns.len() - n0) as f64;
        self.slice_rates.push(n / ((run.busy_ns - busy0) / 1e9));
    }

    /// Tops the pass up to a reportable p99, then reports the median
    /// slice throughput and latency percentiles over every prediction.
    pub fn report(&mut self, out: &mut Report) -> Result<(), String> {
        while self.run.pred_ns.len() < 100 * (stats::MIN_BEYOND + 1) {
            self.slice(Duration::ZERO);
        }
        out.put("preds_per_s", stats::median(&self.slice_rates), "1/s");
        let us: Vec<f64> = self.run.pred_ns.iter().map(|ns| ns / 1e3).collect();
        out.put_pct("pred_us_p50", &us, 0.50, "us")?;
        out.put_pct("pred_us_p99", &us, 0.99, "us")?;
        out.note(format!("cold: {} slices", self.slice_rates.len()));
        Ok(())
    }
}

/// A content hash of every block of `ir`, in visit order.
pub fn block_hashes(ir: &ProgramIr) -> Vec<u64> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for node in &ir.root {
        node.visit_blocks(&mut |b| {
            buf.clear();
            b.encode_content(&mut buf);
            let mut h = DefaultHasher::new();
            h.write(&buf);
            out.push(h.finish());
        });
    }
    out
}

/// Programs whose innermost blocks score `pred_err_pct`: the first this
/// many of the seed's corpus, however many a run had time to predict, so
/// the score depends on the seed alone.
pub const ACCURACY_PROGRAMS: usize = 2000;

/// The untimed oracle pass: every timed cost must be bit-identical to a
/// fresh uncached predictor's, and the innermost blocks of the first
/// [`ACCURACY_PROGRAMS`] corpus programs are placed and scored against
/// the simulator's makespan. Also measures the timed corpus's input
/// properties. It runs incrementally between measurement slices, so the
/// slices of one run sample the host over a longer stretch.
pub struct ColdOracle {
    fresh: Vec<Predictor>,
    /// Regenerates the corpus, program by program.
    rng: crate::rng::Rng,
    /// Next corpus program to check.
    next: usize,
    checked: Checked,
    err_pct: Vec<f64>,
    /// Summed nest depth of the timed programs.
    depth: usize,
    ops: usize,
    subs: usize,
    blocks: usize,
    repeated: usize,
    seen: HashSet<u64>,
}

impl ColdOracle {
    pub fn new(machines: &[MachineDesc], seed: u64) -> ColdOracle {
        ColdOracle {
            fresh: machines.iter().map(|m| Predictor::new(m.clone())).collect(),
            rng: crate::rng::Rng::new(seed, STREAM_CORPUS),
            next: 0,
            checked: Checked::default(),
            err_pct: Vec::new(),
            depth: 0,
            ops: 0,
            subs: 0,
            blocks: 0,
            repeated: 0,
            seen: HashSet::new(),
        }
    }

    /// Checks every timed program not checked yet, then drops it, so
    /// the run's footprint does not grow with its throughput.
    pub fn catch_up(&mut self, machines: &[MachineDesc], run: &mut ColdRun) {
        for (src, costs) in std::mem::take(&mut run.pending) {
            self.check_next(machines, Some((&src, &costs)));
        }
    }

    /// Regenerates the next corpus program and checks it against
    /// `timed`, its source and costs, if it was timed.
    fn check_next(&mut self, machines: &[MachineDesc], timed: Option<(&str, &[Vec<String>])>) {
        let idx = self.next;
        self.next += 1;
        let generated = corpus::program(&mut self.rng, &format!("c{idx}"));
        if timed.is_some() {
            self.depth += corpus::nest_depth(&generated);
        }
        for (mi, (predictor, machine)) in self.fresh.iter().zip(machines).enumerate() {
            if timed.is_some() {
                self.checked.attempted += 1;
            }
            let Ok(preds) = predictor.predict_source(&generated) else {
                self.checked.failed += u64::from(timed.is_some());
                continue;
            };
            if let Some((src, costs)) = timed {
                if generated == src && cost_strings(&preds) == costs[mi] {
                    self.checked.ok += 1;
                }
            }
            for pred in &preds {
                if timed.is_some() {
                    self.subs += 1;
                    self.ops += pred.ir.op_count();
                    for h in block_hashes(&pred.ir) {
                        self.blocks += 1;
                        if !self.seen.insert(h) {
                            self.repeated += 1;
                        }
                    }
                }
                if idx < ACCURACY_PROGRAMS {
                    if let Some(block) = pred.ir.innermost_block() {
                        let placed =
                            place_block(machine, block, PlaceOptions::default()).completion;
                        if let Ok(sim) = presage_sim::simulate_block(machine, block) {
                            if sim.makespan > 0 {
                                let (p, r) = (f64::from(placed), f64::from(sim.makespan));
                                self.err_pct.push(100.0 * (p - r).abs() / r);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Checks the rest, scores the accuracy programs, and reports.
    pub fn finish(
        mut self,
        machines: &[MachineDesc],
        run: &mut ColdRun,
        out: &mut Report,
    ) -> Checked {
        self.catch_up(machines, run);
        while self.next < ACCURACY_PROGRAMS {
            self.check_next(machines, None);
        }
        out.put("pred_err_pct", stats::mean(&self.err_pct), "%");
        out.note(format!(
            "input: {} programs x {} machines; mean source {:.0} B, nest depth {:.2}, {:.1} ops/sub, \
             {:.2} blocks/sub, {:.1}% of blocks repeat an earlier shape; accuracy over {} innermost blocks",
            run.programs,
            machines.len(),
            stats::frac(run.src_bytes as f64, run.programs as f64),
            stats::frac(self.depth as f64, run.programs as f64),
            stats::frac(self.ops as f64, self.subs as f64),
            stats::frac(self.blocks as f64, self.subs as f64),
            100.0 * stats::frac(self.repeated as f64, self.blocks as f64),
            self.err_pct.len()
        ));
        self.checked
    }
}

/// Layer-by-layer replay of predictions through the layers' public
/// functions, with a span around each call.
#[derive(Default)]
pub struct Probe {
    /// Translated programs kept for the placement and bound probes.
    pub irs: Vec<(usize, ProgramIr)>,
    pub bytes: usize,
    pub programs: usize,
    pub checked: Checked,
    place_ns: u128,
    placed_ops: usize,
}

impl Probe {
    /// On every machine, as `predict_source` does: parses `src`, then
    /// keys, checks, translates, aggregates and (on the cache machine)
    /// charges memory for each subroutine.
    pub fn predict(&mut self, tr: &mut Tracer, machines: &[MachineDesc], src: &str, keep_ir: bool) {
        let opts = AggregateOptions::default();
        self.programs += 1;
        self.bytes += src.len();
        tr.begin_request();
        for (mi, machine) in machines.iter().enumerate() {
            self.checked.attempted += 1;
            let Ok(program) = tr.span("frontend.parse", |_| presage_frontend::parse(src)) else {
                self.checked.failed += 1;
                continue;
            };
            let mut ok = true;
            for sub in &program.units {
                tr.span("core.transcache_key", |_| {
                    TranslationCache::key(machine, sub)
                });
                let ir = tr
                    .span("frontend.sema", |_| presage_frontend::sema::analyze(sub))
                    .ok()
                    .and_then(|symbols| {
                        tr.span("translate.translate", |_| {
                            presage_translate::translate(sub, &symbols, machine)
                        })
                        .ok()
                    });
                let Some(ir) = ir else {
                    ok = false;
                    continue;
                };
                tr.span("core.aggregate", |_| aggregate(&ir, machine, None, &opts));
                if let Some(cache) = &machine.cache {
                    tr.span("core.memcost", |_| mem_cost(&ir, cache, &opts));
                }
                if keep_ir {
                    self.irs.push((mi, ir));
                }
            }
            if ok {
                self.checked.ok += 1;
            } else {
                self.checked.failed += 1;
            }
        }
    }

    /// Placement and lower-bound probes on the kept programs.
    pub fn place_and_bound(&mut self, tr: &mut Tracer, machines: &[MachineDesc]) {
        let opts = AggregateOptions::default();
        let bindings = HashMap::new();
        for (mi, ir) in &self.irs {
            let machine = &machines[*mi];
            if let Some(block) = ir.innermost_block() {
                let t = Instant::now();
                for _ in 0..8 {
                    std::hint::black_box(place_block(machine, block, PlaceOptions::default()));
                }
                self.place_ns += t.elapsed().as_nanos();
                self.placed_ops += 8 * block.len();
            }
            tr.span("core.bound", |_| {
                subroutine_lower_bound(ir, machine, &opts, &bindings)
            });
        }
    }

    /// The frontend, translate and core metrics the spans measured.
    pub fn report(&self, tr: &Tracer, out: &mut Report) {
        let kept = self.irs.len() as f64;
        let ops: usize = self.irs.iter().map(|(_, ir)| ir.op_count()).sum();
        let blocks: usize = self.irs.iter().map(|(_, ir)| block_hashes(ir).len()).sum();
        out.put("frontend.parse_us", tr.mean_us("frontend.parse"), "us");
        out.put("frontend.sema_us", tr.mean_us("frontend.sema"), "us");
        out.put(
            "frontend.src_bytes",
            stats::frac(self.bytes as f64, self.programs as f64),
            "B",
        );
        out.put(
            "translate.translate_us",
            tr.mean_us("translate.translate"),
            "us",
        );
        out.put(
            "translate.ops_per_sub",
            stats::frac(ops as f64, kept),
            "count",
        );
        out.put(
            "translate.blocks_per_sub",
            stats::frac(blocks as f64, kept),
            "count",
        );
        out.put(
            "core.transcache_key_us",
            tr.mean_us("core.transcache_key"),
            "us",
        );
        out.put("core.aggregate_us", tr.mean_us("core.aggregate"), "us");
        out.put(
            "core.place_ns_per_op",
            stats::frac(self.place_ns as f64, self.placed_ops as f64),
            "ns",
        );
        out.put("core.memcost_us", tr.mean_us("core.memcost"), "us");
        out.put("core.bound_us", tr.mean_us("core.bound"), "us");
    }
}

/// Replays every source on every machine layer by layer, then probes
/// placement and bounds on all of them.
pub fn layer_probes(tr: &mut Tracer, machines: &[MachineDesc], sources: &[&str]) -> Probe {
    let mut probe = Probe::default();
    for src in sources {
        probe.predict(tr, machines, src, true);
    }
    probe.place_and_bound(tr, machines);
    probe
}

/// Per-layer metrics. The corpus is taken in chunks of
/// [`ADVANCE_EVERY`] programs, and each chunk goes through three passes
/// in rotating order, with an epoch advance after each: `predict_source`
/// on every machine, a layer-by-layer replay without recording, and the
/// same replay traced. So all three see the same programs and sample the
/// same stretch of host time. Coverage is the traced replay's span time
/// over the `predict_source` time; overhead is the traced replay's time
/// over the untraced replay's. Placement and bound probes run afterwards
/// on a quarter of the traced programs. Returns the `predict_source`
/// pass for verification and the replays' outcome counts.
pub fn traced(
    p: &Predictors,
    machines: &[MachineDesc],
    seed: u64,
    budget: Duration,
    out: &mut Report,
    tracer: &mut Tracer,
) -> (ColdRun, Checked) {
    let mut phase = ColdPhase::new(p, seed);
    let (hits0, misses0) = (p.cache.hits(), p.cache.misses());
    let (mut plain, mut probe) = (Probe::default(), Probe::default());
    let (mut plain_ns, mut traced_ns) = (0f64, 0f64);
    let mut polys_reclaimed = 0u64;
    let mut replay = |tr: &mut Tracer, probe: &mut Probe, sources: &[String]| -> f64 {
        let wall = Instant::now();
        for (i, src) in sources.iter().enumerate() {
            probe.predict(tr, machines, src, i % 4 == 0);
        }
        polys_reclaimed += tr.span("symbolic.advance", |_| advance(&p.cache));
        wall.elapsed().as_nanos() as f64
    };
    take_thread_stats();
    let start = Instant::now();
    let mut chunk = 0;
    while chunk == 0 || start.elapsed() < budget {
        let sources: Vec<String> = (0..ADVANCE_EVERY).map(|i| phase.source(i)).collect();
        for pass in 0..3 {
            match (chunk + pass) % 3 {
                0 => {
                    for src in &sources {
                        phase.predict(src.clone());
                    }
                }
                1 => plain_ns += replay(&mut Tracer::disabled(), &mut plain, &sources),
                _ => traced_ns += replay(tracer, &mut probe, &sources),
            }
        }
        chunk += 1;
    }
    let memo = take_thread_stats();
    let run = phase.run;
    let covered = tracer.covered_ns() as f64;
    probe.place_and_bound(tracer, machines);
    probe.report(tracer, out);
    let (hits, misses) = (p.cache.hits() - hits0, p.cache.misses() - misses0);
    out.put(
        "core.transcache_hit_frac",
        stats::frac(hits as f64, (hits + misses) as f64),
        "frac",
    );
    crate::put_memo(out, &memo);
    crate::put_arena(out, run.polys_reclaimed + polys_reclaimed);
    out.put("trace.coverage_frac", covered / run.busy_ns, "frac");
    out.put(
        "trace.overhead_pct",
        100.0 * (traced_ns / plain_ns - 1.0),
        "%",
    );
    out.note(format!(
        "trace: {} programs x {} machines: predict_source {:.3} s; layer replay {:.3} s untraced, {:.3} s traced",
        run.programs,
        machines.len(),
        run.busy_ns / 1e9,
        plain_ns / 1e9,
        traced_ns / 1e9
    ));
    let mut checked = plain.checked;
    checked.add(probe.checked);
    (run, checked)
}
