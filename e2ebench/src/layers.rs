//! The traced run: calls into each layer's public functions, timed
//! from here. Nothing inside the program changes; the query
//! pipeline's own stage times come from its public
//! `QueryOptions::trace` sink.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use d3l_core::profile::profile_table;
use d3l_core::{D3l, D3lConfig, EngineHandle, QueryOptions, QueryTrace, ShardedD3l};
use d3l_embedding::{CachedEmbedder, Lexicon, SemanticEmbedder};
use d3l_server::api::{query_response, table_from_json};
use d3l_server::json::Json;
use d3l_table::DataLake;

use crate::stats::median;
use crate::trace::Spans;
use crate::{Metric, K};

/// In-process passes cover the first this many open-loop targets.
pub const TRACED_TARGETS: usize = 400;
/// Shard count of the in-process sharded engine behind
/// `shard.read_ratio` and `shard.straggler_ms` (the hot-writes
/// layout).
const RATIO_SHARDS: usize = 8;

pub struct Input<'a> {
    pub lake_dir: &'a Path,
    pub work: &'a Path,
    pub shards: usize,
    /// The served index, reopened in process at the base version.
    pub reference: &'a EngineHandle,
    /// Open-loop targets: the client's latency in ms and the request
    /// body.
    pub targets: &'a [(f64, Arc<str>)],
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn target_of(body: &str) -> Result<d3l_table::Table, String> {
    let json = Json::parse(body).map_err(|e| format!("request body: {e}"))?;
    table_from_json(json.get("table").ok_or("request body has no table")?)
        .map_err(|e| format!("request table: {e}"))
}

/// Median in-process latency in ms of `query` over `targets`.
fn untraced_p50(engine: &ShardedD3l, targets: &[d3l_table::Table]) -> f64 {
    let lat: Vec<f64> = targets
        .iter()
        .map(|t| {
            let t0 = Instant::now();
            std::hint::black_box(engine.query(t, K));
            secs(t0) * 1e3
        })
        .collect();
    median(&lat)
}

pub fn measure(input: &Input) -> Result<Vec<Metric>, String> {
    let cfg = D3lConfig::default();

    // d3l-table, core::index, d3l-store: the set-up path in process.
    let t = Instant::now();
    let lake = DataLake::load_dir(input.lake_dir).map_err(|e| format!("load_dir: {e}"))?;
    let csv_load_s = secs(t);
    let embedder = SemanticEmbedder::new(Lexicon::new(cfg.embed_dim));
    let t = Instant::now();
    {
        let cached = CachedEmbedder::new(&embedder);
        for (_, table) in lake.iter() {
            std::hint::black_box(profile_table(table, cfg.q, &cached));
        }
    }
    let profile_s = secs(t);
    let t = Instant::now();
    let mono = D3l::index_lake_with(&lake, cfg.clone(), embedder);
    let build_s = secs(t);
    let saved = if input.shards == 1 {
        ShardedD3l::from_monolith(mono.clone())
    } else {
        ShardedD3l::split(mono.clone(), input.shards)
    };
    let t = Instant::now();
    let handle = EngineHandle::create(input.work.join("saved"), saved)
        .map_err(|e| format!("EngineHandle::create: {e}"))?;
    let save_s = secs(t);
    drop(handle);
    let t = Instant::now();
    let reopened = EngineHandle::open(input.work.join("saved"))
        .map_err(|e| format!("EngineHandle::open: {e}"))?;
    let open_s = secs(t);
    drop(reopened);

    // The query path, one request span per target. Traced and
    // untraced passes alternate which goes first per target, so
    // neither always runs on warm caches.
    let snap = input.reference.snapshot();
    let engine = &snap.engine;
    let width = engine.config().lookup_width(K);
    let mut spans = Spans::new();
    let (mut untraced, mut candidate_tables, mut answers) = (Vec::new(), Vec::new(), Vec::new());
    let mut targets = Vec::with_capacity(input.targets.len());
    for (req, (_, body)) in input.targets.iter().enumerate() {
        let untraced_pass = |lat: &mut Vec<f64>| {
            let target = target_of(body)?;
            let t0 = Instant::now();
            std::hint::black_box(engine.query(&target, K));
            lat.push(secs(t0) * 1e3);
            Ok::<_, String>(())
        };
        if req % 2 == 0 {
            untraced_pass(&mut untraced)?;
        }
        let t0 = Instant::now();
        let target = target_of(body)?;
        let t1 = Instant::now();
        let prepared = engine.prepare_target(&target);
        let t2 = Instant::now();
        let trace = QueryTrace::with_shards(engine.shard_count());
        let opts = QueryOptions {
            trace: Some(Arc::clone(&trace)),
            ..Default::default()
        };
        let matches = engine.query_prepared(&prepared, K, &opts);
        let t3 = Instant::now();
        let rendered = query_response(&snap, &matches);
        let t4 = Instant::now();
        std::hint::black_box(rendered);
        let root = spans.record("request", t0, t4, None, req);
        spans.record("server.parse", t0, t1, Some(root), req);
        let query = spans.record("query", t1, t3, Some(root), req);
        spans.record("query.profile", t1, t2, Some(query), req);
        // The trace sink gives each stage's total only, so the stage
        // spans are laid end to end from `t2`: their durations are
        // measured, their start and end are placed.
        let (c, s, a) = trace.stages_ns();
        let mut at = spans.ns(t2);
        for (name, ns) in [
            ("query.candidates", c),
            ("query.score", s),
            ("query.aggregate", a),
        ] {
            spans.record_ns(name, at, at + ns, Some(query), req);
            at += ns;
        }
        spans.record("server.render", t3, t4, Some(root), req);
        if req % 2 == 1 {
            untraced_pass(&mut untraced)?;
        }
        candidate_tables.push(engine.related_table_set_prepared(&prepared, width).len() as f64);
        answers.push(matches.len() as f64);
        targets.push(target);
    }
    spans
        .write_tsv(&input.work.with_extension("spans.tsv"))
        .map_err(|e| format!("cannot write spans: {e}"))?;

    // Sharded vs monolith on the same lake and targets.
    let mono_engine = ShardedD3l::from_monolith(mono.clone());
    let sharded_engine = ShardedD3l::split(mono, RATIO_SHARDS);
    let mono_p50 = untraced_p50(&mono_engine, &targets);
    let sharded_p50 = untraced_p50(&sharded_engine, &targets);
    let straggler: Vec<f64> = targets
        .iter()
        .map(|t| {
            let trace = QueryTrace::with_shards(RATIO_SHARDS);
            let opts = QueryOptions {
                trace: Some(Arc::clone(&trace)),
                ..Default::default()
            };
            std::hint::black_box(sharded_engine.query_with(t, K, &opts));
            trace.slowest_shard().map_or(0.0, |(_, ns)| ms(ns))
        })
        .collect();

    let by_name = spans.self_ms_by_name();
    let self_p50 = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    let self_sum = |name: &str| by_name.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let request_total: f64 = spans.durations_ms("request").iter().sum();
    let query_total: f64 = spans.durations_ms("query").iter().sum();
    let traced_query_p50 = median(&spans.durations_ms("query"));
    let client: Vec<f64> = input.targets.iter().map(|(l, _)| *l).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    Ok(vec![
        ("table.csv_load_s", csv_load_s, "s"),
        ("index.profile_s", profile_s, "s"),
        ("index.build_s", build_s, "s"),
        ("store.save_s", save_s, "s"),
        ("store.open_s", open_s, "s"),
        ("server.parse_ms", self_p50("server.parse"), "ms"),
        ("server.render_ms", self_p50("server.render"), "ms"),
        (
            "server.http_residual_ms",
            median(&client) - median(&spans.durations_ms("request")),
            "ms",
        ),
        ("query.inproc_p50_ms", traced_query_p50, "ms"),
        ("query.profile_ms", self_p50("query.profile"), "ms"),
        ("query.candidates_ms", self_p50("query.candidates"), "ms"),
        (
            "query.candidates_share",
            self_sum("query.candidates") / query_total,
            "ratio",
        ),
        ("query.candidate_tables", median(&candidate_tables), "count"),
        (
            "query.candidates_per_answer",
            mean(&candidate_tables) / mean(&answers).max(1.0),
            "ratio",
        ),
        ("query.score_ms", self_p50("query.score"), "ms"),
        ("query.aggregate_ms", self_p50("query.aggregate"), "ms"),
        ("shard.straggler_ms", median(&straggler), "ms"),
        ("shard.read_ratio", sharded_p50 / mono_p50, "ratio"),
        (
            "trace.unattributed_share",
            (self_sum("request") + self_sum("query")) / request_total,
            "ratio",
        ),
        (
            "trace.overhead_share",
            traced_query_p50 / median(&untraced) - 1.0,
            "ratio",
        ),
    ])
}
