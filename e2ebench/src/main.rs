//! End-to-end and per-layer benchmark of the presage predictor.
//!
//! ```text
//! e2ebench --workload <cold_corpus|search_session|server_openloop>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the program only through its public API and
//! does most of its work in different layers (`METRICS.md` records why
//! each was chosen and which per-layer metric should move which
//! end-to-end metric). A run sets up, measures for `--seconds` in
//! slices, and between slices sets up again (dropping the result) and
//! checks every new output against an oracle, untimed; `setup_s` is the
//! median of all its set-ups. With `--trace 0` the
//! last stdout line carries every end-to-end metric; with `--trace 1`
//! the run records spans around each call into a layer and the line
//! carries every per-layer metric instead.

mod cold;
mod corpus;
mod rng;
mod search;
mod serve;
mod setup;
mod stats;
mod trace;

use presage_symbolic::memo::MemoStats;
use stats::Report;
use std::time::{Duration, Instant};

/// Generator stream tags: distinct inputs of one seed.
pub const STREAM_CORPUS: u64 = 1;
pub const STREAM_POOL: u64 = 2;
pub const STREAM_REQUESTS: u64 = 3;
pub const STREAM_SESSION: u64 = 4;
/// Set-up repetition `r` draws its warm-up inputs from `STREAM_WARM + r`.
pub const STREAM_WARM: u64 = 100;

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them.
const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    ("preds_per_s", "1/s"),
    ("pred_us_p50", "us"),
    ("pred_us_p99", "us"),
    ("pred_err_pct", "%"),
    ("search_ms_p50", "ms"),
    ("search_ms_p90", "ms"),
    ("research_ms_p50", "ms"),
    ("search_speedup_geo", "x"),
    ("lat_ms_p50.low", "ms"),
    ("lat_ms_p99.low", "ms"),
    ("lat_ms_p99.high", "ms"),
    ("max_rps", "1/s"),
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists
/// them.
const PER_LAYER: [(&str, &str); 38] = [
    ("machine.from_json_us", "us"),
    ("frontend.parse_us", "us"),
    ("frontend.sema_us", "us"),
    ("frontend.src_bytes", "B"),
    ("translate.translate_us", "us"),
    ("translate.ops_per_sub", "count"),
    ("translate.blocks_per_sub", "count"),
    ("core.transcache_key_us", "us"),
    ("core.transcache_hit_frac", "frac"),
    ("core.aggregate_us", "us"),
    ("core.place_ns_per_op", "ns"),
    ("core.memcost_us", "us"),
    ("core.bound_us", "us"),
    ("symbolic.memo_l1_hit_frac", "frac"),
    ("symbolic.memo_l2_hit_frac", "frac"),
    ("symbolic.arena_polys", "count"),
    ("symbolic.l2_entries", "count"),
    ("symbolic.polys_reclaimed", "count"),
    ("optimizer.evaluated", "count"),
    ("optimizer.pruned_frac", "frac"),
    ("optimizer.merged_frac", "frac"),
    ("optimizer.useful_frac", "frac"),
    ("optimizer.cache_hit_frac", "frac"),
    ("optimizer.transform_us", "us"),
    ("optimizer.structural_key_us", "us"),
    ("server.fill_wait_ms_p50", "ms"),
    ("server.service_ms_per_wave", "ms"),
    ("server.late_ms_p99", "ms"),
    ("server.translations_evicted", "count"),
    ("machine.self_ms", "ms"),
    ("frontend.self_ms", "ms"),
    ("translate.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("symbolic.self_ms", "ms"),
    ("optimizer.self_ms", "ms"),
    ("server.self_ms", "ms"),
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_pct", "%"),
];

/// Oracle outcome counts of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checked {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that matched their oracle.
    pub ok: u64,
    /// Operations that returned an error where none was expected.
    pub failed: u64,
}

impl Checked {
    pub fn add(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
    }

    pub fn ok_frac(&self) -> f64 {
        stats::frac(self.ok as f64, self.attempted as f64)
    }
}

/// Two-level memo hit shares.
pub fn put_memo(out: &mut Report, memo: &MemoStats) {
    let lookups = memo.lookups() as f64;
    out.put(
        "symbolic.memo_l1_hit_frac",
        stats::frac(memo.l1_hits as f64, lookups),
        "frac",
    );
    out.put(
        "symbolic.memo_l2_hit_frac",
        stats::frac(memo.l2_hits as f64, lookups),
        "frac",
    );
}

/// Arena and L2 footprint after the phase, plus slots it reclaimed.
pub fn put_arena(out: &mut Report, polys_reclaimed: u64) {
    let arena = presage_symbolic::arena_stats();
    out.put("symbolic.arena_polys", arena.polynomials as f64, "count");
    out.put(
        "symbolic.l2_entries",
        presage_core::l2_memo_entries() as f64,
        "count",
    );
    out.put("symbolic.polys_reclaimed", polys_reclaimed as f64, "count");
}

#[cfg(test)]
mod tests {
    use presage_machine::json::Json;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&super::END_TO_END));
        assert_eq!(listed("per_layer"), table(&super::PER_LAYER));
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ColdCorpus,
    SearchSession,
    ServerOpenloop,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "cold_corpus" => Workload::ColdCorpus,
                    "search_session" => Workload::SearchSession,
                    "server_openloop" => Workload::ServerOpenloop,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Wall times of a run's set-ups.
#[derive(Default)]
struct SetUps {
    secs: Vec<f64>,
    from_json_us: Vec<f64>,
}

impl SetUps {
    /// Loads the machines and runs `set_up` on them, timing both.
    fn time<T>(
        &mut self,
        set_up: impl FnOnce(&[presage_machine::MachineDesc]) -> Result<T, String>,
    ) -> Result<(Vec<presage_machine::MachineDesc>, T), String> {
        let t = Instant::now();
        let (machines, json_us) = setup::load_machines_timed()?;
        let state = set_up(&machines)?;
        self.secs.push(t.elapsed().as_secs_f64());
        self.from_json_us.push(json_us);
        Ok((machines, state))
    }

    fn report(&self, out: &mut Report) {
        let ms: Vec<String> = self
            .secs
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect();
        out.note(format!("set-up: {} runs, ms: {}", ms.len(), ms.join(" ")));
        out.put("setup_s", stats::median(&self.secs), "s");
        out.put(
            "machine.from_json_us",
            stats::median(&self.from_json_us),
            "us",
        );
    }
}

/// Sets up the workload again as repetition `rep`, drops the result.
type Again = Box<dyn Fn(&mut SetUps, u64) -> Result<(), String>>;

/// Slices a run is divided into. Every phase of a run runs a part in
/// each slice, so all of them sample the same stretch of host time. The
/// host's speed moves by a quarter within seconds, so slices are short
/// and many: each phase then sees the host's speed at many points of the
/// run, not at a few.
const SLICES: u32 = 40;
/// A repeated set-up runs after every this many slices.
const SETUP_EVERY: u32 = 4;
/// Share of a slice each companion cold or search phase takes.
const COMPANION_SHARE: f64 = 0.08;

/// All three phases of a run: the workload's own, which fills each
/// slice, and small companions of the other two, which give the
/// remaining end-to-end metrics (every run reports every one).
struct Phases<'a> {
    machines: &'a [presage_machine::MachineDesc],
    cold: cold::ColdPhase<'a>,
    cold_oracle: cold::ColdOracle,
    search: search::SearchPhase<'a>,
    server: serve::ServerPhase<'a>,
}

impl Phases<'_> {
    /// Measures `--seconds` in slices. The oracle passes run between
    /// slices, and a repeated set-up between every [`SETUP_EVERY`]th
    /// pair, untimed: the slice deadlines move by the time they take,
    /// and the set-ups sample the same stretch of host time as the
    /// slices.
    fn measure(&mut self, args: &Args, set_ups: &mut SetUps, again: &Again) -> Result<(), String> {
        let slice = Duration::from_secs_f64(args.seconds) / SLICES;
        let companion = slice.mul_f64(COMPANION_SHARE);
        let start = Instant::now();
        let mut untimed = Duration::ZERO;
        for i in 1..=SLICES {
            let end = start + slice * i + untimed;
            let left = || end.saturating_duration_since(Instant::now());
            match args.workload {
                Workload::ColdCorpus => {
                    self.server.slice(i, None)?;
                    self.search.slice(companion);
                    self.cold.slice(left().max(slice / 2));
                }
                Workload::SearchSession => {
                    self.server.slice(i, None)?;
                    self.cold.slice(companion);
                    self.search.slice(left().max(slice / 2));
                }
                Workload::ServerOpenloop => {
                    self.cold.slice(companion);
                    self.search.slice(companion);
                    self.server.slice(i, Some(end))?;
                }
            }
            let between = Instant::now();
            if i.is_multiple_of(SETUP_EVERY) {
                again(set_ups, u64::from(i / SETUP_EVERY))?;
            }
            self.cold_oracle.catch_up(self.machines, &mut self.cold.run);
            self.search.catch_up(self.machines);
            self.server.catch_up();
            untimed += between.elapsed();
        }
        Ok(())
    }

    fn finish(self, out: &mut Report, tracer: &mut trace::Tracer) -> Result<Checked, String> {
        let mut checked = Checked::default();
        let mut cold = self.cold;
        cold.report(out)?;
        checked.add(self.cold_oracle.finish(self.machines, &mut cold.run, out));
        checked.add(self.search.finish(self.machines, out)?);
        checked.add(self.server.finish(out, false, tracer)?);
        Ok(checked)
    }
}

fn run(args: &Args) -> Result<(Report, Checked), String> {
    let mut out = Report::default();
    let mut checked = Checked::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tracer = trace::Tracer::new();
    let seed = args.seed;
    let depth = match args.workload {
        Workload::SearchSession => search::Depth::Default,
        Workload::ServerOpenloop | Workload::ColdCorpus => search::Depth::One,
    };
    // Each workload's own state comes out of its timed set-up; the
    // companions' state is built untimed.
    let mut set_ups = SetUps::default();
    let (machines, predictors, session, mut server, again): (_, _, _, _, Again) =
        match args.workload {
            Workload::ColdCorpus => {
                let (machines, p) = set_ups.time(|m| cold::set_up(m, seed, 0))?;
                let (s, d) = (
                    search::new_session(&machines)?,
                    serve::new_server(&machines),
                );
                let again = Box::new(move |set_ups: &mut SetUps, rep| {
                    set_ups.time(|m| cold::set_up(m, seed, rep)).map(drop)
                });
                (machines, p, s, d, again)
            }
            Workload::SearchSession => {
                let (machines, s) = set_ups.time(|m| search::set_up(m, seed, 0))?;
                let (p, d) = (
                    cold::Predictors::new(&machines),
                    serve::new_server(&machines),
                );
                let again = Box::new(move |set_ups: &mut SetUps, rep| {
                    set_ups.time(|m| search::set_up(m, seed, rep)).map(drop)
                });
                (machines, p, s, d, again)
            }
            Workload::ServerOpenloop => {
                let (machines, d) = set_ups.time(|m| serve::set_up(m, seed, 0))?;
                let (p, s) = (
                    cold::Predictors::new(&machines),
                    search::new_session(&machines)?,
                );
                let again = Box::new(move |set_ups: &mut SetUps, rep| {
                    set_ups.time(|m| serve::set_up(m, seed, rep)).map(drop)
                });
                (machines, p, s, d, again)
            }
        };
    if !args.trace {
        let mut phases = Phases {
            machines: &machines,
            cold: cold::ColdPhase::new(&predictors, seed),
            cold_oracle: cold::ColdOracle::new(&machines, seed),
            search: search::SearchPhase::new(&session, seed, depth),
            server: serve::ServerPhase::new(&mut server, &machines, seed)?,
        };
        phases.measure(args, &mut set_ups, &again)?;
        checked.add(phases.finish(&mut out, &mut tracer)?);
    } else {
        match args.workload {
            Workload::ColdCorpus => {
                let (mut run, traced) =
                    cold::traced(&predictors, &machines, seed, budget, &mut out, &mut tracer);
                checked.add(traced);
                let oracle = cold::ColdOracle::new(&machines, seed);
                checked.add(oracle.finish(&machines, &mut run, &mut Report::default()));
            }
            Workload::SearchSession => {
                checked.add(search::traced(
                    &session,
                    &machines,
                    seed,
                    budget,
                    &mut out,
                    &mut tracer,
                ));
            }
            Workload::ServerOpenloop => {
                let mut server = serve::ServerPhase::new(&mut server, &machines, seed)?;
                let start = Instant::now();
                for i in 1..=SLICES {
                    server.slice(i, Some(start + budget / SLICES * i))?;
                }
                checked.add(server.finish(&mut out, true, &mut tracer)?);
            }
        }
    }
    set_ups.report(&mut out);
    out.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    out.put("ok_frac", checked.ok_frac(), "frac");
    if args.trace {
        let layers = tracer.layer_self_ns();
        for layer in [
            "machine",
            "frontend",
            "translate",
            "core",
            "symbolic",
            "optimizer",
            "server",
        ] {
            let ns = layers.get(layer).copied().unwrap_or(0);
            out.put(&format!("{layer}.self_ms"), ns as f64 / 1e6, "ms");
        }
        // Layers a workload bypasses report zero.
        for (name, unit) in PER_LAYER {
            if out.get(name).is_none() {
                out.put(name, 0.0, unit);
            }
        }
        let name = format!("{:?}", args.workload).to_lowercase();
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}-{}.jsonl", args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.note(format!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
    }
    Ok((out, checked))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let (report, checked) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    for line in report.lines() {
        println!("{line}");
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match report.metrics_json(declared) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    let correct = checked.attempted > 0 && checked.ok == checked.attempted && checked.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        checked.attempted,
        checked.attempted - checked.ok
    );
    if !correct {
        eprintln!(
            "e2ebench: oracle check failed: {}/{} outputs correct",
            checked.ok, checked.attempted
        );
        std::process::exit(1);
    }
}
