//! `server_openloop`: an open-loop JSON-lines stream through
//! `presage_server::Server::run` at fixed rates.
//!
//! The generator is a `BufRead` that hands each line to the server only
//! at its due time, so the server runs on this thread with the default
//! `ServerConfig` and its own wave policy decides when work happens.
//! Program popularity follows a seeded Zipf law over a pool of generated
//! programs, so reuse distances span both a wave and several epochs;
//! about 1% of lines are malformed or name an unknown machine. A
//! request's latency runs from its due time to the moment its response
//! line is written.

use crate::rng::{Rng, Zipf};
use crate::stats::{self, Report};
use crate::trace::Tracer;
use crate::{cold, corpus, Checked, STREAM_POOL, STREAM_REQUESTS, STREAM_WARM};
use presage_core::predictor::Predictor;
use presage_machine::json::Json;
use presage_machine::MachineDesc;
use presage_server::{Server, ServerConfig, ServerStats};
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::time::{Duration, Instant};

/// Distinct programs requests draw from. Both are assumptions: no trace
/// of a prediction daemon's requests is published. The exponent is the
/// upper end of the 0.64-0.83 that Breslau et al. ("Web Caching and
/// Zipf-like Distributions: Evidence and Implications", INFOCOM 1999)
/// measured for request popularity at shared web caches. The pool is
/// sized so that, under the default `ServerConfig` (one epoch advance
/// per wave), reuse distances fall both inside a wave and many epochs
/// apart; the run prints the measured distances.
pub const POOL: usize = 400;
const ZIPF_EXPONENT: f64 = 0.8;
const MALFORMED_SHARE: f64 = 0.01;
/// The fixed low rate, where wave fill dominates latency.
pub const LOW_RPS: f64 = 400.0;
/// The fixed high rate: a little under half of the capacity measured on
/// a 2-core x86-64 host (about 4400 rps).
pub const HIGH_RPS: f64 = 2000.0;
/// `max_rps` ladder: `LADDER_BASE * LADDER_RATIO^k`.
const LADDER_BASE: f64 = 1000.0;
const LADDER_RATIO: f64 = 1.05;
const LADDER_STEPS: i32 = 80;
/// p99 latency limit a ladder rate must meet.
pub const LIMIT_MS: f64 = 50.0;
/// Requests per ladder probe: the fewest that leave ten beyond the p99.
const LADDER_REQUESTS: usize = 1024;
/// Requests in each set-up's unpaced warm-up stream.
const WARM_REQUESTS: usize = 1024;
/// The wave size of the default `ServerConfig`.
fn wave_size() -> usize {
    ServerConfig::default().wave_size
}

/// What request `i` asks for, and so what its response must be.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Program `pool[.0]` on machine `.1`.
    Predict(usize, usize),
    /// A typed error of this `kind`.
    Error(&'static str),
}

/// A generated request stream.
pub struct Stream {
    pub first_id: usize,
    pub lines: Vec<Vec<u8>>,
    pub expect: Vec<Expect>,
}

/// `count` requests over `pool`, ids starting at `first_id`.
pub fn stream(
    rng: &mut Rng,
    machines: &[MachineDesc],
    pool: &[String],
    first_id: usize,
    count: usize,
) -> Stream {
    let zipf = Zipf::new(pool.len(), ZIPF_EXPONENT);
    let mut lines = Vec::with_capacity(count);
    let mut expect = Vec::with_capacity(count);
    for i in first_id..first_id + count {
        let (line, e) = if rng.chance(MALFORMED_SHARE) {
            if rng.chance(0.5) {
                (
                    format!("{{\"id\": {i}, \"machine\": "),
                    Expect::Error("parse"),
                )
            } else {
                let src = Json::Str(pool[zipf.sample(rng)].clone()).to_string_compact();
                (
                    format!("{{\"id\":{i},\"machine\":\"vax\",\"source\":{src}}}"),
                    Expect::Error("machine"),
                )
            }
        } else {
            let p = zipf.sample(rng);
            let m = rng.below(machines.len());
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(i as f64)),
                ("machine".into(), Json::Str(machines[m].name().into())),
                ("source".into(), Json::Str(pool[p].clone())),
            ])
            .to_string_compact();
            (line, Expect::Predict(p, m))
        };
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        lines.push(bytes);
        expect.push(e);
    }
    Stream {
        first_id,
        lines,
        expect,
    }
}

/// Releases each line at its due time.
struct Paced<'a> {
    lines: &'a [Vec<u8>],
    due: Vec<Instant>,
    next: usize,
    pos: usize,
    /// When each line was handed to the server.
    released: Vec<Instant>,
    /// How late the generator woke for lines it had to wait for, ns.
    overshoot_ns: Vec<f64>,
}

impl Paced<'_> {
    fn wait_until(due: Instant) -> bool {
        let now = Instant::now();
        if now >= due {
            return false;
        }
        let left = due - now;
        if left > Duration::from_micros(1500) {
            std::thread::sleep(left - Duration::from_micros(1000));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        true
    }
}

impl Read for Paced<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Paced<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.next >= self.lines.len() {
            return Ok(&[]);
        }
        if self.pos == 0 && self.released.len() == self.next {
            let due = self.due[self.next];
            let waited = Self::wait_until(due);
            let now = Instant::now();
            if waited {
                self.overshoot_ns.push((now - due).as_nanos() as f64);
            }
            self.released.push(now);
        }
        Ok(&self.lines[self.next][self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        if amt == 0 {
            return;
        }
        self.pos += amt;
        if self.pos >= self.lines[self.next].len() {
            self.next += 1;
            self.pos = 0;
        }
    }
}

/// Collects the response stream, stamping the moment each line ends.
#[derive(Default)]
struct Stamped {
    bytes: Vec<u8>,
    line_ends: Vec<Instant>,
}

impl Write for Stamped {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let newlines = data.iter().filter(|&&b| b == b'\n').count();
        if newlines > 0 {
            let now = Instant::now();
            self.line_ends.extend(std::iter::repeat_n(now, newlines));
        }
        self.bytes.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One paced pass of a stream through the server.
pub struct Phase {
    pub due: Vec<Instant>,
    pub released: Vec<Instant>,
    pub written: Vec<Instant>,
    pub overshoot_ns: Vec<f64>,
    pub output: Vec<u8>,
    pub stats: ServerStats,
}

impl Phase {
    /// Due-to-written latency of every request, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.written)
            .map(|(d, w)| w.saturating_duration_since(*d).as_secs_f64() * 1e3)
            .collect()
    }

    /// Due-to-read lag of the last wave's lines, ms: near zero unless a
    /// backlog has built up.
    fn tail_lag_ms(&self) -> f64 {
        let n = self.due.len();
        let from = n.saturating_sub(wave_size());
        stats::mean(
            &(from..n)
                .map(|i| {
                    self.released[i]
                        .saturating_duration_since(self.due[i])
                        .as_secs_f64()
                        * 1e3
                })
                .collect::<Vec<_>>(),
        )
    }

    /// `(fill wait of each request, service time of each wave)`, ms.
    /// Fill wait runs from a request's due time to the read of its
    /// wave's last line; service from that read to the wave's first
    /// response.
    pub fn wave_split_ms(&self) -> (Vec<f64>, Vec<f64>) {
        let w = wave_size();
        let mut fill = Vec::with_capacity(self.due.len());
        let mut service = Vec::new();
        for start in (0..self.due.len()).step_by(w) {
            let end = (start + w).min(self.due.len());
            let last_read = self.released[end - 1];
            for i in start..end {
                fill.push(
                    last_read
                        .saturating_duration_since(self.due[i])
                        .as_secs_f64()
                        * 1e3,
                );
            }
            service.push(
                self.written[start]
                    .saturating_duration_since(last_read)
                    .as_secs_f64()
                    * 1e3,
            );
        }
        (fill, service)
    }
}

/// Serves `s` at `rate` requests per second.
pub fn phase(server: &mut Server, s: &Stream, rate: f64) -> Result<Phase, String> {
    let t0 = Instant::now() + Duration::from_millis(2);
    let due: Vec<Instant> = (0..s.lines.len())
        .map(|i| t0 + Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let mut paced = Paced {
        lines: &s.lines,
        due: due.clone(),
        next: 0,
        pos: 0,
        released: Vec::with_capacity(s.lines.len()),
        overshoot_ns: Vec::new(),
    };
    let mut out = Stamped::default();
    let stats = server
        .run(&mut paced, &mut out)
        .map_err(|e| format!("server I/O: {e}"))?;
    if out.line_ends.len() != s.lines.len() + 1 {
        return Err(format!(
            "server wrote {} lines for {} requests",
            out.line_ends.len(),
            s.lines.len()
        ));
    }
    out.line_ends.pop();
    Ok(Phase {
        due,
        released: paced.released,
        written: out.line_ends,
        overshoot_ns: paced.overshoot_ns,
        output: out.bytes,
        stats,
    })
}

/// A default-configured server knowing every loaded machine.
pub fn new_server(machines: &[MachineDesc]) -> Server {
    machines
        .iter()
        .fold(Server::new(ServerConfig::default()), |server, m| {
            server.with_machine(m.clone())
        })
}

/// Set-up as a user pays it for this workload: the server, and a warm-up
/// stream drawn disjoint from the measured one, served unpaced.
pub fn set_up(machines: &[MachineDesc], seed: u64, rep: u64) -> Result<Server, String> {
    let mut server = new_server(machines);
    let warm_pool = corpus::programs(seed, STREAM_WARM + rep, "w", WARM_REQUESTS);
    let mut rng = Rng::new(seed, STREAM_WARM + rep);
    let warm = stream(&mut rng, machines, &warm_pool, 0, WARM_REQUESTS);
    let input: Vec<u8> = warm.lines.concat();
    server
        .run(input.as_slice(), &mut std::io::sink())
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(server)
}

/// `(name, cost)` of every subroutine in one response.
type Served = Vec<(String, String)>;

/// Fresh, uncached predictions of every (program, machine) a stream
/// asked for, as `(name, cost)` lists.
#[derive(Default)]
pub struct Oracle {
    fresh: HashMap<(usize, usize), Option<Served>>,
}

impl Oracle {
    fn expected(
        &mut self,
        machines: &[MachineDesc],
        pool: &[String],
        p: usize,
        m: usize,
    ) -> &Option<Served> {
        self.fresh.entry((p, m)).or_insert_with(|| {
            Predictor::new(machines[m].clone())
                .predict_source(&pool[p])
                .ok()
                .map(|preds| {
                    preds
                        .iter()
                        .map(|x| (x.name.clone(), x.total.to_string()))
                        .collect()
                })
        })
    }

    /// Checks every response line of `output` against `expect`.
    pub fn check(
        &mut self,
        machines: &[MachineDesc],
        pool: &[String],
        expect: &[Expect],
        first_id: usize,
        output: &[u8],
    ) -> Checked {
        let mut checked = Checked::default();
        let text = String::from_utf8_lossy(output);
        let mut responses = text.lines();
        for (i, e) in expect.iter().enumerate() {
            checked.attempted += 1;
            let Some(resp) = responses.next().and_then(|l| Json::parse(l).ok()) else {
                checked.failed += 1;
                continue;
            };
            let ok = resp.get("ok").and_then(Json::as_bool);
            let good = match e {
                Expect::Error(kind) => {
                    ok == Some(false) && resp.get("kind").and_then(Json::as_str) == Some(kind)
                }
                Expect::Predict(p, m) => {
                    let id_ok =
                        resp.get("id").and_then(Json::as_u64) == Some((first_id + i) as u64);
                    let served: Option<Served> =
                        resp.get("predictions").and_then(Json::as_arr).map(|preds| {
                            preds
                                .iter()
                                .map(|x| {
                                    let s = |k: &str| {
                                        x.get(k)
                                            .and_then(Json::as_str)
                                            .unwrap_or_default()
                                            .to_string()
                                    };
                                    (s("name"), s("cost"))
                                })
                                .collect()
                        });
                    if ok != Some(true) {
                        checked.failed += 1;
                    }
                    id_ok
                        && ok == Some(true)
                        && served.is_some()
                        && &served == self.expected(machines, pool, *p, *m)
                }
            };
            if good {
                checked.ok += 1;
            }
        }
        checked
    }
}

/// The stream's measured reuse: share of requests repeating an earlier
/// (program, machine) pair, and reuse distances in waves.
fn reuse_note(expect: &[Expect]) -> String {
    let w = wave_size();
    let mut last: HashMap<(usize, usize), usize> = HashMap::new();
    let mut distances = Vec::new();
    let mut predicts = 0;
    for (i, e) in expect.iter().enumerate() {
        if let Expect::Predict(p, m) = e {
            predicts += 1;
            if let Some(prev) = last.insert((*p, *m), i) {
                distances.push((i / w - prev / w) as f64);
            }
        }
    }
    let pct =
        |p: f64| stats::percentile(&distances, p).map_or("n/a".to_string(), |v| format!("{v:.0}"));
    format!(
        "input: {} requests, {:.1}% repeat an earlier (program, machine) pair; reuse distance in waves p50 {} p90 {} p99 {} (n={})",
        expect.len(),
        100.0 * stats::frac(distances.len() as f64, predicts as f64),
        pct(0.5),
        pct(0.9),
        pct(0.99),
        distances.len()
    )
}

fn ladder_rate(k: i32) -> f64 {
    LADDER_BASE * LADDER_RATIO.powi(k)
}

/// The top of the `max_rps` bisection: 1000 × 1.05^64 ≈ 22 800 rps.
const BISECT_TOP: i32 = 64;

/// Whether a ladder probe met the latency limit without a backlog: p99
/// within [`LIMIT_MS`] and its last wave read within half of it.
fn passes(ph: &Phase) -> bool {
    let p99 = stats::percentile(&ph.latencies_ms(), 0.99).unwrap_or(f64::INFINITY);
    p99 <= LIMIT_MS && ph.tail_lag_ms() <= LIMIT_MS / 2.0
}

/// Pass shares `passed / probes` of rungs in rising order, with adjacent
/// rungs pooled wherever a higher rung would pass more often than a lower
/// one, so the shares never rise with the rate.
fn falling_shares(counts: &[(usize, usize)]) -> Vec<f64> {
    // Pools of adjacent rungs: (passed, probes, rungs).
    let mut pools: Vec<(usize, usize, usize)> = Vec::new();
    for &(passed, probes) in counts {
        pools.push((passed, probes, 1));
        while let [.., (p0, n0, k0), (p1, n1, k1)] = pools[..] {
            if p0 * n1 >= p1 * n0 {
                break;
            }
            pools.truncate(pools.len() - 2);
            pools.push((p0 + p1, n0 + n1, k0 + k1));
        }
    }
    pools
        .iter()
        .flat_map(|&(p, n, k)| std::iter::repeat_n(stats::frac(p as f64, n as f64), k))
        .collect()
}

/// Completed requests per second from first due time to last response,
/// over every probe given.
fn achieved_rps<'p>(probes: impl Iterator<Item = &'p Phase>) -> f64 {
    let (mut n, mut secs) = (0usize, 0f64);
    for ph in probes {
        n += ph.due.len();
        secs += ph.written.last().map_or(0.0, |w| {
            w.saturating_duration_since(ph.due[0]).as_secs_f64()
        });
    }
    stats::frac(n as f64, secs)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Segment {
    Low,
    High,
    /// A ladder probe; `staircase` is false during the bisection.
    Probe {
        rung: i32,
        staircase: bool,
    },
}

/// Low-rate waves per even slice.
const LOW_WAVES: usize = 1;
/// High-rate waves per odd slice, at least; the primary phase fills
/// every slice with more.
const HIGH_WAVES: usize = 2;

/// The open-loop phases, run in slices that interleave with other
/// phases. Each slice serves a `max_rps` ladder probe, and either a wave
/// at the low rate or waves at the high rate.
///
/// `max_rps` is found on the ladder in two steps. A bisection between
/// the lowest rung whose wave fill fits half the limit and rung
/// [`BISECT_TOP`] finds the boundary from single probes. A staircase
/// then starts at the highest rung the bisection saw pass and moves one
/// rung up after each probe that passes and one down after each that
/// fails, so it keeps probing around the rate where half the probes
/// pass. `max_rps` is the achieved rate of the passing probes at the
/// highest rung where at least half the staircase's probes passed (pass
/// shares pooled so they fall with the rate), so, like the other
/// metrics, it rests on samples spread over the whole run.
pub struct ServerPhase<'a> {
    server: &'a mut Server,
    machines: &'a [MachineDesc],
    pool: Vec<String>,
    rng: Rng,
    next_id: usize,
    segments: Vec<(Segment, Stream, Phase)>,
    rung: i32,
    lowest_rung: i32,
    /// The open bisection interval, until it closes.
    bisect: Option<(i32, i32)>,
    /// Segments through the oracle so far, and what it found.
    oracle: Oracle,
    verified: usize,
    checked: Checked,
    hits0: u64,
    misses0: u64,
}

impl<'a> ServerPhase<'a> {
    pub fn new(
        server: &'a mut Server,
        machines: &'a [MachineDesc],
        seed: u64,
    ) -> Result<ServerPhase<'a>, String> {
        // The lowest rung whose wave-fill time alone fits half the limit.
        let lowest_rung = (0..LADDER_STEPS)
            .find(|&k| (wave_size() - 1) as f64 / ladder_rate(k) * 1e3 <= LIMIT_MS / 2.0)
            .ok_or("no ladder rate fits the latency limit")?;
        let (hits0, misses0) = (
            server.translation_cache().hits(),
            server.translation_cache().misses(),
        );
        Ok(ServerPhase {
            server,
            machines,
            pool: corpus::programs(seed, STREAM_POOL, "p", POOL),
            rng: Rng::new(seed, STREAM_REQUESTS),
            next_id: 0,
            segments: Vec::new(),
            rung: (lowest_rung + BISECT_TOP) / 2,
            lowest_rung,
            bisect: Some((lowest_rung, BISECT_TOP)),
            oracle: Oracle::default(),
            verified: 0,
            checked: Checked::default(),
            hits0,
            misses0,
        })
    }

    fn serve(&mut self, kind: Segment, count: usize, rate: f64) -> Result<&Phase, String> {
        let s = stream(
            &mut self.rng,
            self.machines,
            &self.pool,
            self.next_id,
            count,
        );
        self.next_id += count;
        let ph = phase(self.server, &s, rate)?;
        self.segments.push((kind, s, ph));
        Ok(&self.segments.last().expect("just pushed").2)
    }

    /// The staircase's probes at `rung`.
    fn staircase_probes(&self, rung: i32) -> impl Iterator<Item = &Phase> {
        self.segments.iter().filter_map(move |(k, _, ph)| {
            (*k == Segment::Probe {
                rung,
                staircase: true,
            })
            .then_some(ph)
        })
    }

    /// One ladder probe at the current rung; picks the next rung.
    fn probe(&mut self) -> Result<(), String> {
        let (rung, staircase) = (self.rung, self.bisect.is_none());
        let rate = ladder_rate(rung);
        let passed =
            passes(self.serve(Segment::Probe { rung, staircase }, LADDER_REQUESTS, rate)?);
        self.rung = match &mut self.bisect {
            Some((lo, hi)) => {
                if passed {
                    *lo = rung;
                } else {
                    *hi = rung;
                }
                if *hi - *lo > 1 {
                    (*lo + *hi) / 2
                } else {
                    let start = *lo;
                    self.bisect = None;
                    start
                }
            }
            None => {
                if passed {
                    rung + 1
                } else {
                    rung - 1
                }
            }
        }
        .clamp(self.lowest_rung, LADDER_STEPS);
        Ok(())
    }

    /// Slice `i`: a ladder probe every slice; low-rate waves, which
    /// mostly wait for their wave to fill, before it in even slices;
    /// high-rate waves after it in odd slices. With `fill_until`,
    /// high-rate waves fill every slice.
    pub fn slice(&mut self, i: u32, fill_until: Option<Instant>) -> Result<(), String> {
        let w = wave_size();
        if i.is_multiple_of(2) {
            self.serve(Segment::Low, LOW_WAVES * w, LOW_RPS)?;
        }
        self.probe()?;
        let left = fill_until.map_or(0.0, |t| {
            t.saturating_duration_since(Instant::now()).as_secs_f64()
        });
        let least = if i.is_multiple_of(2) { 0 } else { HIGH_WAVES };
        let waves = ((left * HIGH_RPS) as usize / w).max(least);
        if waves > 0 {
            self.serve(Segment::High, waves * w, HIGH_RPS)?;
        }
        Ok(())
    }

    /// Runs the oracle pass over the responses not checked yet, then
    /// drops their request and response bytes, so the run's footprint
    /// does not grow with its throughput.
    pub fn catch_up(&mut self) {
        for (_, s, ph) in &mut self.segments[self.verified..] {
            let c = self
                .oracle
                .check(self.machines, &self.pool, &s.expect, s.first_id, &ph.output);
            self.checked.add(c);
            s.lines = Vec::new();
            ph.output = Vec::new();
        }
        self.verified = self.segments.len();
    }

    fn of(&self, kind: fn(&Segment) -> bool) -> impl Iterator<Item = &(Segment, Stream, Phase)> {
        self.segments.iter().filter(move |(k, _, _)| kind(k))
    }

    /// Reports the open-loop metrics, the per-layer metrics when traced,
    /// and runs the oracle pass over every response.
    pub fn finish(
        mut self,
        out: &mut Report,
        traced: bool,
        tracer: &mut Tracer,
    ) -> Result<Checked, String> {
        self.catch_up();
        let lat = |kind: fn(&Segment) -> bool| -> Vec<f64> {
            self.of(kind)
                .flat_map(|(_, _, ph)| ph.latencies_ms())
                .collect()
        };
        let low = lat(|k| *k == Segment::Low);
        let high = lat(|k| *k == Segment::High);
        out.put_pct("lat_ms_p50.low", &low, 0.50, "ms")?;
        out.put_pct("lat_ms_p99.low", &low, 0.99, "ms")?;
        out.put_pct("lat_ms_p99.high", &high, 0.99, "ms")?;

        // Every staircase probe's verdict, by rung: (rung, passed, probes).
        let mut rungs: Vec<(i32, usize, usize)> = Vec::new();
        for (k, _, ph) in &self.segments {
            if let Segment::Probe {
                rung,
                staircase: true,
            } = *k
            {
                let at = match rungs.binary_search_by_key(&rung, |r| r.0) {
                    Ok(at) => at,
                    Err(at) => {
                        rungs.insert(at, (rung, 0, 0));
                        at
                    }
                };
                rungs[at].1 += usize::from(passes(ph));
                rungs[at].2 += 1;
            }
        }
        // The highest rung where at least half the probes pass, once
        // the pass shares are made to fall with the rate; failing a
        // staircase, the highest rung any probe passed at.
        let counts: Vec<(usize, usize)> = rungs.iter().map(|&(_, p, n)| (p, n)).collect();
        let boundary = rungs
            .iter()
            .zip(falling_shares(&counts))
            .filter(|&(_, share)| share >= 0.5)
            .map(|(&(rung, _, _), _)| rung)
            .next_back();
        let max_rps = match boundary {
            Some(r) if self.staircase_probes(r).any(passes) => {
                achieved_rps(self.staircase_probes(r).filter(|ph| passes(ph)))
            }
            Some(r) => achieved_rps(self.staircase_probes(r)),
            None => self
                .segments
                .iter()
                .filter(|(k, _, ph)| matches!(k, Segment::Probe { .. }) && passes(ph))
                .map(|(_, _, ph)| achieved_rps(std::iter::once(ph)))
                .reduce(f64::max)
                .ok_or("no ladder rate met the latency limit")?,
        };
        let ladder: Vec<String> = rungs
            .iter()
            .map(|&(r, passed, n)| format!("{:.0} {passed}/{n}", ladder_rate(r)))
            .collect();
        out.put("max_rps", max_rps, "1/s");

        let expect: Vec<Expect> = self
            .segments
            .iter()
            .flat_map(|(_, s, _)| s.expect.iter().cloned())
            .collect();
        out.note(reuse_note(&expect));
        out.note(format!(
            "server: low {LOW_RPS} rps x {}, high {HIGH_RPS} rps x {}, p99 limit {LIMIT_MS} ms; staircase rungs (rps passed/probes): {}",
            low.len(),
            high.len(),
            ladder.join(", ")
        ));
        if traced {
            self.per_layer(out, tracer);
        }
        Ok(self.checked)
    }

    /// Server-side per-layer metrics from the reader/writer timestamps,
    /// wave spans for the trace, and layer probes over the request pool.
    fn per_layer(&self, out: &mut Report, tr: &mut Tracer) {
        let fill: Vec<f64> = self
            .of(|k| *k == Segment::Low)
            .flat_map(|(_, _, ph)| ph.wave_split_ms().0)
            .collect();
        let service: Vec<f64> = self
            .of(|k| *k == Segment::High)
            .flat_map(|(_, _, ph)| ph.wave_split_ms().1)
            .collect();
        out.put("server.fill_wait_ms_p50", stats::median(&fill), "ms");
        out.put("server.service_ms_per_wave", stats::mean(&service), "ms");
        let overshoot: Vec<f64> = self
            .segments
            .iter()
            .flat_map(|(_, _, p)| p.overshoot_ns.iter().map(|ns| ns / 1e6))
            .collect();
        out.put(
            "server.late_ms_p99",
            stats::percentile(&overshoot, 0.99).unwrap_or(0.0),
            "ms",
        );
        let sum = |f: fn(&ServerStats) -> u64| {
            self.segments
                .iter()
                .map(|(_, _, p)| f(&p.stats))
                .sum::<u64>()
        };
        out.put(
            "server.translations_evicted",
            sum(|s| s.translations_evicted) as f64,
            "count",
        );
        let cache = self.server.translation_cache();
        let (hits, misses) = (cache.hits() - self.hits0, cache.misses() - self.misses0);
        let memo = self.segments.iter().fold(
            presage_symbolic::memo::MemoStats::default(),
            |m, (_, _, p)| m.merged(&p.stats.memo),
        );
        crate::put_memo(out, &memo);
        crate::put_arena(out, sum(|s| s.polys_reclaimed));

        // Wave spans: the fill wait (due of the wave's first request to
        // the read of its last; layer `queue`, since no layer is busy)
        // and the server's service (that read to its last response).
        let mut wall_ns = 0u64;
        for (_, _, ph) in &self.segments {
            let w = wave_size();
            for start in (0..ph.due.len()).step_by(w) {
                let end = (start + w).min(ph.due.len());
                let req = tr.begin_request();
                tr.record("queue.fill", ph.due[start], ph.released[end - 1], req);
                tr.record(
                    "server.service",
                    ph.released[end - 1],
                    ph.written[end - 1],
                    req,
                );
            }
            wall_ns += ph.written.last().map_or(0, |w| {
                w.saturating_duration_since(ph.due[0]).as_nanos() as u64
            });
        }
        out.put(
            "trace.coverage_frac",
            tr.covered_ns() as f64 / wall_ns as f64,
            "frac",
        );
        // Spans are built from timestamps the untraced run takes anyway.
        out.put("trace.overhead_pct", 0.0, "%");

        // Layer probes: every pool program on every machine.
        let sources: Vec<&str> = self.pool.iter().map(String::as_str).collect();
        let probe = cold::layer_probes(tr, self.machines, &sources);
        probe.report(tr, out);
        out.put(
            "core.transcache_hit_frac",
            stats::frac(hits as f64, (hits + misses) as f64),
            "frac",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_shares_fall_with_the_rate() {
        // Already falling: unchanged.
        assert_eq!(falling_shares(&[(3, 3), (1, 2), (0, 4)]), [1.0, 0.5, 0.0]);
        // 1/3 then 2/3 rise, so the two rungs pool to 3/6.
        assert_eq!(
            falling_shares(&[(4, 4), (1, 3), (2, 3), (0, 2)]),
            [1.0, 0.5, 0.5, 0.0]
        );
        // A rise after a pool pools again: 0/2, 1/2, 2/2 -> 3/6.
        assert_eq!(falling_shares(&[(0, 2), (1, 2), (2, 2)]), [0.5, 0.5, 0.5]);
    }

    #[test]
    fn tampered_response_lowers_ok_frac() {
        let machines = crate::setup::load_machines().unwrap();
        let pool = corpus::programs(3, STREAM_POOL, "p", 20);
        let mut rng = Rng::new(3, STREAM_REQUESTS);
        let s = stream(&mut rng, &machines, &pool, 0, 200);
        let mut server = Server::new(ServerConfig::default());
        for m in &machines {
            server = server.with_machine(m.clone());
        }
        let mut output = Vec::new();
        server
            .run(s.lines.concat().as_slice(), &mut output)
            .unwrap();
        let clean = Oracle::default().check(&machines, &pool, &s.expect, 0, &output);
        assert_eq!(clean.ok, clean.attempted);
        assert_eq!(clean.attempted, 200);

        let text = String::from_utf8(output).unwrap();
        let at = text.find("\"cost\":\"").expect("a served cost") + "\"cost\":\"".len();
        let mut tampered = text.clone();
        tampered.insert_str(at, "1 + ");
        let bad = Oracle::default().check(&machines, &pool, &s.expect, 0, tampered.as_bytes());
        assert_eq!(bad.ok, clean.ok - 1);

        // A malformed line answered as a success is caught too.
        let i = s.expect.iter().position(|e| matches!(e, Expect::Error(_)));
        if let Some(i) = i {
            let lines: Vec<&str> = text.lines().collect();
            let ok_line = lines.iter().find(|l| l.contains("\"ok\":true")).unwrap();
            let mut swapped: Vec<&str> = lines.clone();
            swapped[i] = ok_line;
            let bad = Oracle::default().check(
                &machines,
                &pool,
                &s.expect,
                0,
                swapped.join("\n").as_bytes(),
            );
            assert!(bad.ok < clean.ok);
        }
    }

    #[test]
    fn stream_is_deterministic_and_mixes_errors() {
        let machines = crate::setup::load_machines().unwrap();
        let pool = corpus::programs(5, STREAM_POOL, "p", 50);
        let a = stream(&mut Rng::new(5, STREAM_REQUESTS), &machines, &pool, 0, 2000);
        let b = stream(&mut Rng::new(5, STREAM_REQUESTS), &machines, &pool, 0, 2000);
        assert_eq!(a.lines, b.lines);
        let errors = a
            .expect
            .iter()
            .filter(|e| matches!(e, Expect::Error(_)))
            .count();
        assert!((5..60).contains(&errors), "{errors} malformed lines");
    }
}
