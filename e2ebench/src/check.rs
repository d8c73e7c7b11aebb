//! Output checks: answers against the in-process engine, quality
//! against the generator's ground truth, and acknowledged writes
//! against an in-process replay.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use d3l_core::hotswap::EngineSnapshot;
use d3l_core::EngineHandle;
use d3l_server::api::{query_response, table_from_json};
use d3l_server::json::Json;

use crate::lake::Lake;
use crate::load::{Outcome, Req};
use crate::{is_compact, K};

/// The `engine_version` of a response body.
pub fn version_of(body: &str) -> Option<u64> {
    Json::parse(body)
        .ok()?
        .get("engine_version")?
        .as_f64()
        .map(|v| v as u64)
}

/// The body `d3l serve` must send for `request` (a `POST /query`
/// body) on `snap`: the same decoding and the same renderer, so any
/// difference in tables, order or distance bits shows.
pub fn expected(snap: &EngineSnapshot, request: &str) -> Result<String, String> {
    let json = Json::parse(request).map_err(|e| format!("request body: {e}"))?;
    let spec = json.get("table").ok_or("request body has no table")?;
    let target = table_from_json(spec).map_err(|e| format!("request table: {e}"))?;
    Ok(query_response(snap, &snap.engine.query(&target, K)))
}

/// Check every answer in `reads` (outcome, target index) against
/// `snap`, on `threads` threads.
pub fn answers(
    snap: &EngineSnapshot,
    reads: &[(&Outcome, usize)],
    body: &(dyn Fn(usize) -> Arc<str> + Sync),
    threads: usize,
) -> Result<(), String> {
    let chunk = reads.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = reads
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    for (o, target) in part {
                        if expected(snap, &body(*target))? != o.body {
                            return Err(format!(
                                "answer to target #{target} differs from the in-process query"
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("check thread panicked"))
    })
}

/// Mean precision and recall at 10 of the warm-up answers against the
/// ground truth restricted to lake members. Fails when a target has
/// no related lake table, or an answer names a table that is neither
/// a lake member nor one the run added.
pub fn ground_truth(
    lake: &Lake,
    warm: &[Outcome],
    added: &HashSet<&str>,
) -> Result<(f64, f64), String> {
    let (mut p, mut r) = (0.0, 0.0);
    for o in warm {
        let target = lake.held_out[o.idx].name();
        let relevant = lake.relevant(target);
        if relevant.is_empty() {
            return Err(format!("target {target} has no related table in the lake"));
        }
        if !o.ok() {
            // A failed query answers nothing: zero precision and recall.
            continue;
        }
        let json = Json::parse(&o.body).map_err(|e| format!("answer to {target}: {e}"))?;
        let matches = json
            .get("matches")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("answer to {target} has no matches"))?;
        let mut hits = Vec::with_capacity(matches.len());
        for m in matches {
            let name = m
                .get("table")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("answer to {target} names no table"))?;
            if !lake.members.contains(name) && !added.contains(name) {
                return Err(format!("answer to {target} names unknown table {name}"));
            }
            hits.push(relevant.contains(name));
        }
        p += d3l_core::metrics::precision_at_k(&hits);
        r += d3l_core::metrics::recall_at_k(&hits, relevant.len());
    }
    let n = warm.len().max(1) as f64;
    Ok((p / n, r / n))
}

/// What the replay of the acknowledged writes measured.
#[derive(Default)]
pub struct Replay {
    /// Later answers checked against the replayed engine.
    pub checked: usize,
    pub add_ms: Vec<f64>,
    pub remove_ms: Vec<f64>,
    pub compact_ms: Vec<f64>,
    /// Mean store bytes appended per add or remove.
    pub bytes_per_write: f64,
}

/// Apply the acknowledged writes, in order, to `handle` (opened on a
/// copy of the served index), check that each lands on the version
/// the server acknowledged, and check each answer in `later` against
/// the replayed engine at the answer's version. Replay stops at the
/// first failed write, whose effect is unknown; answers read after it
/// are left unchecked.
pub fn replay(
    handle: &EngineHandle,
    reqs: &[Req],
    out: &[Outcome],
    later: &[(&Outcome, usize)],
    body: &(dyn Fn(usize) -> Arc<str> + Sync),
) -> Result<Replay, String> {
    let mut by_version: BTreeMap<u64, Vec<(&Outcome, usize)>> = BTreeMap::new();
    for &(o, target) in later {
        let v = version_of(&o.body).ok_or("answer without engine_version")?;
        by_version.entry(v).or_default().push((o, target));
    }
    let mut rep = Replay::default();
    let check_at = |snap: &EngineSnapshot,
                    by_version: &mut BTreeMap<u64, Vec<(&Outcome, usize)>>|
     -> Result<usize, String> {
        let Some(reads) = by_version.remove(&snap.version) else {
            return Ok(0);
        };
        // Repeated targets at one version need one in-process query.
        let mut want: BTreeMap<usize, String> = BTreeMap::new();
        for (o, target) in &reads {
            if !want.contains_key(target) {
                want.insert(*target, expected(snap, &body(*target))?);
            }
            if want[target] != o.body {
                return Err(format!(
                    "answer to target #{target} at version {} differs from the replayed engine",
                    snap.version
                ));
            }
        }
        Ok(reads.len())
    };
    let disk = |h: &EngineHandle| -> Result<u64, String> {
        let (base, deltas, _) = h.disk_stats().map_err(|e| format!("disk_stats: {e}"))?;
        Ok(base + deltas)
    };
    let (mut appended, mut writes) = (0u64, 0usize);
    for o in out {
        rep.checked += check_at(&handle.snapshot(), &mut by_version)?;
        if !o.ok() {
            return Ok(rep);
        }
        let req = &reqs[o.idx];
        let before = disk(handle)?;
        let t = Instant::now();
        let snap = match (req.method, req.path.as_str()) {
            _ if is_compact(req) => {
                handle
                    .compact()
                    .map_err(|e| format!("replay compact: {e}"))?;
                rep.compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
                handle.snapshot()
            }
            ("POST", "/tables") => {
                let json = Json::parse(req.body.as_deref().unwrap_or_default())
                    .map_err(|e| format!("add body: {e}"))?;
                let table = table_from_json(json.get("table").ok_or("add body has no table")?)
                    .map_err(|e| format!("add body: {e}"))?;
                let (_, snap) = handle
                    .add_table(&table)
                    .map_err(|e| format!("replay add: {e}"))?;
                rep.add_ms.push(t.elapsed().as_secs_f64() * 1e3);
                snap
            }
            ("DELETE", path) => {
                let name = path.strip_prefix("/tables/").unwrap_or(path);
                let (_, snap) = handle
                    .remove_table(name)
                    .map_err(|e| format!("replay remove: {e}"))?;
                rep.remove_ms.push(t.elapsed().as_secs_f64() * 1e3);
                snap
            }
            (m, p) => return Err(format!("cannot replay {m} {p}")),
        };
        if !is_compact(req) {
            appended += disk(handle)?.saturating_sub(before);
            writes += 1;
        }
        if version_of(&o.body) != Some(snap.version) {
            return Err(format!(
                "{} {} was acknowledged at version {:?}; the replay reached {}",
                req.method,
                req.path,
                version_of(&o.body),
                snap.version
            ));
        }
    }
    rep.checked += check_at(&handle.snapshot(), &mut by_version)?;
    if let Some((v, _)) = by_version.iter().next() {
        return Err(format!(
            "answers came from version {v}, which no acknowledged write produced"
        ));
    }
    rep.bytes_per_write = appended as f64 / writes.max(1) as f64;
    Ok(rep)
}
