//! End-to-end benchmark for `d3l`.
//!
//! One run: generate a seeded lake as CSVs, bring it up with the
//! shipped `d3l index` and `d3l serve` (several times, for `setup_s`),
//! play one workload over HTTP, check every answer against the
//! in-process engine and the ground truth, and print one JSON line.
//! `--trace 1` prints the per-layer metrics instead, from calls into
//! each layer's public functions timed by this crate.
//!
//! ```text
//! d3l-e2ebench --workload small-lake|large-lake|hot-writes --seed N
//!              --seconds S --trace 0|1 --d3l <path to the d3l binary>
//! ```

mod check;
mod lake;
mod layers;
mod load;
mod serve;
mod stats;
mod trace;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use d3l_server::json::Json;

use load::{Outcome, Pace, Req};
use serve::Scrape;

/// Answer size of every query, as in the paper's top-k evaluation.
pub const K: usize = 10;
/// `setup_s` is the median of this many index-and-serve cycles.
const SETUP_REPS: usize = 5;
/// Distinct targets queried once before the timed phases; their
/// answers give `precision_at_10` and `recall_at_10`.
const WARMUP_TARGETS: usize = 300;
/// Share of `--seconds` given to the open-loop phase; the closed-loop
/// phase gets the rest.
const OPEN_SHARE: f64 = 0.6;
/// `POST /admin/compact` after every this many writes.
const COMPACT_EVERY: usize = 16;
const COMPACT_PATH: &str = "/admin/compact";
/// Zipf exponent of the repeated targets.
const ZIPF_S: f64 = 1.1;
/// Latency charged to a failed request: the client's I/O timeout.
const FAILED_MS: f64 = 30_000.0;
/// One hot-writes read answer in this many is replay-checked.
const SAMPLE_EVERY: u64 = 16;

struct Workload {
    name: &'static str,
    lake: usize,
    shards: usize,
    /// Open-loop query rate, queries/s. A constant, so the parent and
    /// the change see the same offered load.
    query_rate: f64,
    /// The closed-loop phase gets distinct targets for at most this
    /// many queries/s; the phase ends early if they run out.
    closed_pool_qps: f64,
    /// Repeated targets: Zipf draws over this many (0 = each target
    /// once).
    hot_pool: usize,
    /// Writes/s on a second connection alongside the reads (0 = a
    /// closing write phase instead).
    write_rate: f64,
    /// Add/remove pairs of the closing write phase, played back to
    /// back: enough for a few seconds of writes.
    write_pairs: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small-lake",
        lake: 160,
        shards: 1,
        query_rate: 60.0,
        closed_pool_qps: 1600.0,
        hot_pool: 0,
        write_rate: 0.0,
        write_pairs: 200,
    },
    Workload {
        name: "large-lake",
        lake: 2000,
        shards: 1,
        query_rate: 30.0,
        closed_pool_qps: 600.0,
        hot_pool: 0,
        write_rate: 0.0,
        write_pairs: 60,
    },
    Workload {
        name: "hot-writes",
        lake: 160,
        shards: 8,
        query_rate: 200.0,
        closed_pool_qps: 6000.0,
        hot_pool: 8,
        write_rate: 6.0,
        write_pairs: 0,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    d3l: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut d3l) = (None, 1, 20.0, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--d3l" => d3l = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
        d3l: d3l.ok_or("missing --d3l <path to the d3l binary>")?,
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let metrics = if report.failure.is_some() {
                Vec::new()
            } else if args.trace {
                report.layers
            } else {
                report.e2e
            };
            if let Some(why) = &report.failure {
                eprintln!("CHECK FAILED: {why}");
            }
            let line = Json::Obj(vec![
                ("correct".into(), Json::Bool(report.failure.is_none())),
                ("attempted".into(), Json::Num(report.attempted as f64)),
                ("failed".into(), Json::Num(report.failed as f64)),
                (
                    "metrics".into(),
                    Json::Obj(
                        metrics
                            .into_iter()
                            .map(|(name, value, unit)| {
                                (
                                    name.to_string(),
                                    Json::Obj(vec![
                                        ("value".into(), Json::Num(value)),
                                        ("unit".into(), Json::str(unit)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]);
            println!("{line}");
            if report.failure.is_some() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

struct Report {
    attempted: usize,
    failed: usize,
    /// The first answer or ground-truth check that failed.
    failure: Option<String>,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
}

/// Client-side median and p90 of `out`, printed next to the p99 when
/// at least ten samples lie above it. A failed request counts as
/// missing any limit: it enters the quantiles at the client's 30 s
/// I/O timeout.
fn summarize<'a>(
    label: &str,
    out: impl IntoIterator<Item = &'a Outcome>,
) -> Result<(f64, f64), String> {
    let out: Vec<&Outcome> = out.into_iter().collect();
    let lat: Vec<f64> = out
        .iter()
        .map(|o| if o.ok() { o.latency_ms() } else { FAILED_MS })
        .collect();
    if !stats::supports_quantile(lat.len(), 0.9) {
        return Err(format!(
            "{label}: {} samples cannot support a p90",
            lat.len()
        ));
    }
    let (p50, p90) = (
        stats::median(&lat),
        stats::quantile(&lat, 0.9).expect("non-empty"),
    );
    let p99 = if stats::supports_quantile(lat.len(), 0.99) {
        format!("{:.3} ms", stats::quantile(&lat, 0.99).expect("non-empty"))
    } else {
        "(too few samples)".to_string()
    };
    eprintln!(
        "  {label:<22} n={:<6} p50={p50:.3} ms  p90={p90:.3} ms  p99={p99}  failed={}",
        lat.len(),
        out.iter().filter(|o| !o.ok()).count()
    );
    Ok((p50, p90))
}

/// Completed requests per second in a closed-loop phase, as the
/// median over the phase's whole seconds: a stall of a second or two
/// on a shared machine moves a bin or two, not the figure.
fn per_second_median(out: &[Outcome], from: Duration, secs: f64) -> f64 {
    let mut bins = vec![0.0; (secs.floor() as usize).max(1)];
    for o in out.iter().filter(|o| o.ok()) {
        let at = o.done.saturating_sub(from).as_secs_f64() as usize;
        if let Some(bin) = bins.get_mut(at) {
            *bin += 1.0;
        }
    }
    stats::median(&bins)
}

/// Cache hits over lookups between two scrapes.
fn hit_rate(before: &Scrape, after: &Scrape) -> f64 {
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    hits / (hits + misses).max(1.0)
}

fn window(label: &str, before: &Scrape, after: &Scrape) {
    let h = after.query_hist.delta_since(&before.query_hist);
    eprintln!(
        "  {label:<22} n={:<6} p50={:.3} ms  p90={:.3} ms  (server, /query)  cache hits={} misses={} evictions={}  rejected={}",
        h.count(),
        h.quantile_ns(0.5) as f64 / 1e6,
        h.quantile_ns(0.9) as f64 / 1e6,
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
        after.cache_evictions - before.cache_evictions,
        after.rejected - before.rejected,
    );
}

/// The write stream: add each table, then remove it again, with a
/// compaction after every `COMPACT_EVERY` writes.
fn write_stream(tables: &[d3l_table::Table]) -> Vec<Req> {
    let mut reqs = Vec::new();
    let mut writes = 0;
    for t in tables {
        reqs.push(Req::post("/tables", lake::add_body(t).into()));
        reqs.push(Req {
            method: "DELETE",
            path: format!("/tables/{}", t.name()),
            body: None,
        });
        writes += 2;
        if writes % COMPACT_EVERY == 0 {
            reqs.push(Req {
                method: "POST",
                path: COMPACT_PATH.into(),
                body: None,
            });
        }
    }
    reqs
}

pub fn is_compact(r: &Req) -> bool {
    r.path == COMPACT_PATH
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = nproc.clamp(1, 4);
    let work_root = Path::new(".bench_work");
    let work =
        WorkDir(work_root.join(format!("{}-s{}-p{}", w.name, args.seed, std::process::id())));
    std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("cannot create {}: {e}", work.0.display()))?;

    // ---- inputs -----------------------------------------------------
    let open_secs = args.seconds * OPEN_SHARE;
    let closed_secs = args.seconds - open_secs;
    let n_open = (w.query_rate * open_secs).round() as usize;
    let n_closed = (w.closed_pool_qps * closed_secs).ceil() as usize;
    let write_pairs = if w.write_rate > 0.0 {
        (w.write_rate * args.seconds / 2.0).ceil() as usize + 1
    } else {
        w.write_pairs
    };
    // Targets sent once each follow the warm-up ones; the tables the
    // writes add and remove come last.
    let distinct = if w.hot_pool > 0 { 0 } else { n_open + n_closed };
    let held = WARMUP_TARGETS + distinct + write_pairs;
    let t = Instant::now();
    let lake_dir = work.0.join("lake");
    let lk = lake::generate(w.lake, held, args.seed, &lake_dir)
        .map_err(|e| format!("cannot write the lake: {e}"))?;
    eprintln!(
        "{}: lake of {} tables and {} held out, generated in {:.2} s ({} connection(s), {nproc} cpu(s))",
        w.name,
        w.lake,
        held,
        t.elapsed().as_secs_f64(),
        conns
    );
    let held_out = &lk.held_out;
    let body = |i: usize| -> Arc<str> { lake::query_body(&held_out[i]).into() };
    let warm_reqs: Vec<Req> = (0..WARMUP_TARGETS)
        .map(|i| Req::post("/query", body(i)))
        .collect();
    // Each read request's target, as an index into `held_out`.
    let (open_targets, closed_targets): (Vec<usize>, Vec<usize>) = if w.hot_pool > 0 {
        let cdf = stats::zipf_cdf(w.hot_pool, ZIPF_S);
        let mut rng = stats::Rng::new(args.seed ^ 0x2107);
        let mut draw = |n: usize| -> Vec<usize> {
            (0..n).map(|_| stats::sample_cdf(&cdf, &mut rng)).collect()
        };
        (draw(n_open), draw(n_closed))
    } else {
        let first = WARMUP_TARGETS;
        (
            (first..first + n_open).collect(),
            (first + n_open..first + distinct).collect(),
        )
    };
    let write_tables = &held_out[WARMUP_TARGETS + distinct..];
    // Targets among the warm-up ones (the repeated pool) share their
    // bodies.
    let reqs_for = |targets: &[usize]| -> Vec<Req> {
        targets
            .iter()
            .map(|&i| match warm_reqs.get(i) {
                Some(r) => Req::post("/query", r.body.clone().expect("query body")),
                None => Req::post("/query", body(i)),
            })
            .collect()
    };
    let open_reqs = reqs_for(&open_targets);
    let closed_reqs = reqs_for(&closed_targets);
    let write_reqs = write_stream(write_tables);

    // ---- setup: d3l index + d3l serve, several times ----------------
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut served = None;
    let mut index_dir = PathBuf::new();
    for rep in 0..SETUP_REPS {
        drop(served.take()); // the previous server is shut down first
        if rep > 0 {
            let _ = std::fs::remove_dir_all(&index_dir);
        }
        index_dir = work.0.join(format!("index-{rep}"));
        let t0 = Instant::now();
        serve::index(&args.d3l, &lake_dir, &index_dir, w.shards)?;
        let s = serve::serve(&args.d3l, &index_dir)?;
        setup.push(t0.elapsed().as_secs_f64());
        served = Some(s);
    }
    let served = served.expect("SETUP_REPS > 0");
    let addr = served.addr;
    let index_bytes = lake::dir_bytes(&index_dir).map_err(|e| format!("index size: {e}"))?;
    // The in-process reference (and the replay of acknowledged
    // writes) runs on a copy taken before the first write.
    let ref_dir = work.0.join("reference");
    lake::copy_dir(&index_dir, &ref_dir).map_err(|e| format!("cannot copy the index: {e}"))?;
    eprintln!(
        "  setup                  {:?} s (median {:.3})",
        setup
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        stats::median(&setup)
    );

    // ---- phases -----------------------------------------------------
    let all = |_: usize| true;
    // Read answers kept for checking: every one, or on hot-writes a
    // seeded one in `SAMPLE_EVERY`.
    let keep = |phase: u64| {
        let (seed, every) = (args.seed, w.hot_pool == 0);
        move |idx: usize| {
            every
                || stats::Rng::new(seed ^ (phase << 40) ^ idx as u64)
                    .next_u64()
                    .is_multiple_of(SAMPLE_EVERY)
        }
    };
    let (keep_open, keep_closed) = (keep(1), keep(2));

    let origin = Instant::now();
    let far = origin + Duration::from_secs(3600);
    let warm = load::play(
        addr,
        &warm_reqs,
        Pace::Closed,
        1,
        origin,
        Instant::now(),
        far,
        &all,
    );
    // The cache layer on every workload: the warm-up targets again, at
    // the same engine version, must all hit and answer byte for byte
    // as before.
    let r0 = serve::scrape(addr)?;
    let again = load::play(
        addr,
        &warm_reqs,
        Pace::Closed,
        1,
        origin,
        Instant::now(),
        far,
        &all,
    );
    let s0 = serve::scrape(addr)?;
    let base_version = s0.version;

    let open_start = Instant::now() + Duration::from_millis(5);
    let open_end = open_start + Duration::from_secs_f64(open_secs);
    let closed_end = open_end + Duration::from_secs_f64(closed_secs);
    let (open_out, s1, closed_out, closed_from, closed_elapsed, s2, hot_writes) =
        std::thread::scope(|scope| {
            let writer = (w.write_rate > 0.0).then(|| {
                scope.spawn(|| {
                    load::play(
                        addr,
                        &write_reqs,
                        Pace::Open { rate: w.write_rate },
                        1,
                        origin,
                        open_start,
                        closed_end,
                        &all,
                    )
                })
            });
            // One open-loop connection: at these rates it is rarely busy
            // when the next request falls due, and two queries running
            // at once on a small machine would slow each other.
            let open_out = load::play(
                addr,
                &open_reqs,
                Pace::Open { rate: w.query_rate },
                1,
                origin,
                open_start,
                open_end,
                &keep_open,
            );
            let s1 = serve::scrape(addr);
            let closed_start = Instant::now().max(open_end);
            let read_conns = if writer.is_some() { 1 } else { conns };
            let closed_out = load::play(
                addr,
                &closed_reqs,
                Pace::Closed,
                read_conns,
                origin,
                closed_start,
                closed_end,
                &keep_closed,
            );
            let closed_elapsed = closed_start.elapsed().as_secs_f64();
            let s2 = serve::scrape(addr);
            let writes = writer.map(|h| h.join().expect("writer thread panicked"));
            let closed_from = closed_start - origin;
            (
                open_out,
                s1,
                closed_out,
                closed_from,
                closed_elapsed,
                s2,
                writes,
            )
        });
    let (s1, s2) = (s1?, s2?);
    let write_out = hot_writes.unwrap_or_else(|| {
        let t = Instant::now();
        load::play(addr, &write_reqs, Pace::Closed, 1, origin, t, far, &all)
    });
    let s3 = serve::scrape(addr)?;
    let rss_mb = served.peak_rss_mb()?;
    drop(served);

    // ---- client-side numbers next to the server's, same windows -----
    eprintln!("  client vs server over the same requests:");
    let (open_p50, open_p90) = summarize("open-loop /query", &open_out)?;
    window("repeated warm-up", &r0, &s0);
    window("open-loop window", &s0, &s1);
    let throughput = per_second_median(&closed_out, closed_from, closed_elapsed);
    eprintln!(
        "  closed-loop /query     n={} in {closed_elapsed:.2} s, median {throughput:.1} queries/s over its seconds{}",
        closed_out.len(),
        if closed_out.len() == closed_reqs.len() {
            " (target pool exhausted)"
        } else {
            ""
        }
    );
    // The gated latency: on a shared machine, requests arriving at an
    // idle server wait for idle CPUs to be woken, so the light-load
    // open-loop median swings with the neighbours' load far more than
    // latency under the closed loop's steady load.
    let (query_p50, _) = summarize("closed-loop latency", &closed_out)?;
    window("closed-loop window", &s1, &s2);
    let writes = write_out.iter().filter(|o| !is_compact(&write_reqs[o.idx]));
    let (write_p50, write_p90) = summarize("add/remove", writes)?;

    // ---- checks -----------------------------------------------------
    // Every read paired with its target, an index into `held_out`.
    let reads: Vec<(&Outcome, usize)> = warm
        .iter()
        .map(|o| (o, o.idx))
        .chain(open_out.iter().map(|o| (o, open_targets[o.idx])))
        .chain(closed_out.iter().map(|o| (o, closed_targets[o.idx])))
        .collect();
    let attempted = reads.len() + again.len() + write_out.len();
    let failed = reads.iter().filter(|(o, _)| !o.ok()).count()
        + again.iter().filter(|o| !o.ok()).count()
        + write_out.iter().filter(|o| !o.ok()).count();
    let write_names: HashSet<&str> = write_tables.iter().map(|t| t.name()).collect();
    let mut failure = None;
    let (precision, recall) = check::ground_truth(&lk, &warm, &write_names).unwrap_or_else(|e| {
        failure = Some(e);
        (0.0, 0.0)
    });
    let reference =
        d3l_core::EngineHandle::open(&ref_dir).map_err(|e| format!("open reference: {e}"))?;
    if reference.snapshot().version != base_version {
        failure.get_or_insert(format!(
            "reference opened at version {} but the server served {base_version}",
            reference.snapshot().version
        ));
    }
    if let Some(o) = again
        .iter()
        .find(|o| o.ok() && warm[o.idx].ok() && o.body != warm[o.idx].body)
    {
        failure.get_or_insert(format!(
            "repeated warm-up target #{} answered differently from its first answer",
            o.idx
        ));
    }
    let repeats_ok = again.iter().filter(|o| o.ok()).count() as u64;
    let (hits, misses) = (
        s0.cache_hits - r0.cache_hits,
        s0.cache_misses - r0.cache_misses,
    );
    if hits != repeats_ok || misses != 0 {
        failure.get_or_insert(format!(
            "repeated warm-up: {repeats_ok} answered, but the cache counted {hits} hits and {misses} misses"
        ));
    }
    // Answers read at the base version are all checked now; later
    // ones (hot-writes) while the acknowledged writes are replayed.
    let (at_base, later): (Vec<_>, Vec<_>) = reads
        .iter()
        .filter(|(o, _)| o.ok() && !o.body.is_empty())
        .partition(|(o, _)| check::version_of(&o.body) == Some(base_version));
    if let Err(e) = check::answers(&reference.snapshot(), &at_base, &body, conns) {
        failure.get_or_insert(e);
    }
    if w.hot_pool == 0 && !later.is_empty() {
        failure.get_or_insert(format!(
            "{} answers came from a version other than the base one",
            later.len()
        ));
    }

    let mut layers: Vec<Metric> = Vec::new();
    if args.trace {
        // The in-process passes run on the reference before the
        // replay moves it past the base version.
        let traced: Vec<(f64, Arc<str>)> = open_out
            .iter()
            .take(layers::TRACED_TARGETS)
            .filter(|o| o.ok())
            .map(|o| (o.latency_ms(), body(open_targets[o.idx])))
            .collect();
        layers = layers::measure(&layers::Input {
            lake_dir: &lake_dir,
            work: &work.0,
            shards: w.shards,
            reference: &reference,
            targets: &traced,
        })?;
    }
    // Replaying the acknowledged writes in process checks each
    // acknowledged version, the answers read after the writes
    // (hot-writes), and times the write path (traced run).
    let replay = check::replay(&reference, &write_reqs, &write_out, &later, &body)
        .unwrap_or_else(|e| {
            failure.get_or_insert(e);
            check::Replay::default()
        });
    eprintln!(
        "  checked {} answers at the base version and {} after writes; P@10 {precision:.4} R@10 {recall:.4}",
        at_base.len(),
        replay.checked
    );

    let e2e: Vec<Metric> = vec![
        ("setup_s", stats::median(&setup), "s"),
        ("query_p50_ms", query_p50, "ms"),
        ("throughput_qps", throughput, "1/s"),
        ("precision_at_10", precision, "ratio"),
        ("recall_at_10", recall, "ratio"),
        (
            "ok_share",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
        ("serve_rss_mb", rss_mb, "MB"),
        ("index_disk_mb", index_bytes as f64 / 1e6, "MB"),
    ];
    if args.trace {
        let open_window = s1.query_hist.delta_since(&s0.query_hist);
        let late: Vec<f64> = open_out.iter().map(Outcome::late_ms).collect();
        layers.extend([
            (
                "server.p50_ms",
                open_window.quantile_ns(0.5) as f64 / 1e6,
                "ms",
            ),
            (
                "server.p90_ms",
                open_window.quantile_ns(0.9) as f64 / 1e6,
                "ms",
            ),
            (
                "server.rejected",
                (s3.rejected - r0.rejected) as f64,
                "count",
            ),
            ("cache.hit_rate", hit_rate(&s0, &s1), "ratio"),
            (
                "cache.hits",
                (s1.cache_hits - s0.cache_hits) as f64,
                "count",
            ),
            (
                "cache.misses",
                (s1.cache_misses - s0.cache_misses) as f64,
                "count",
            ),
            (
                "cache.evictions",
                (s1.cache_evictions - s0.cache_evictions) as f64,
                "count",
            ),
            ("hotswap.add_ms", stats::median(&replay.add_ms), "ms"),
            ("hotswap.remove_ms", stats::median(&replay.remove_ms), "ms"),
            ("store.bytes_per_write", replay.bytes_per_write, "bytes"),
            ("store.compact_ms", stats::median(&replay.compact_ms), "ms"),
            (
                "cache.hit_p50_ms",
                stats::median(&again.iter().map(Outcome::latency_ms).collect::<Vec<_>>()),
                "ms",
            ),
            ("loadgen.open_p50_ms", open_p50, "ms"),
            ("loadgen.open_p90_ms", open_p90, "ms"),
            ("loadgen.write_p50_ms", write_p50, "ms"),
            ("loadgen.write_p90_ms", write_p90, "ms"),
            (
                "loadgen.late_p90_ms",
                stats::quantile(&late, 0.9).unwrap_or(0.0),
                "ms",
            ),
        ]);
    }
    Ok(Report {
        attempted,
        failed,
        failure,
        e2e,
        layers,
    })
}
