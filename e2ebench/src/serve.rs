//! Bringing the shipped binary up: `d3l index`, then `d3l serve`,
//! plus the scrapes of `/stats` and `/metrics` that bracket each
//! timed phase.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use d3l_server::json::Json;
use d3l_server::request_once;
use d3l_telemetry::{HistogramSnapshot, BOUNDS_NS, NUM_BUCKETS};

/// A running `d3l serve`; shut down and reaped on drop.
pub struct Served {
    child: Child,
    /// Drains the server's standard output until it exits.
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

/// Run `d3l index <lake> --out <out> --shards <n>` to completion.
pub fn index(bin: &Path, lake: &Path, out: &Path, shards: usize) -> Result<(), String> {
    let output = Command::new(bin)
        .arg("index")
        .arg(lake)
        .arg("--out")
        .arg(out)
        .args(["--shards", &shards.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "d3l index failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(())
}

/// Start `d3l serve` on an ephemeral port and wait for its first
/// `200` on `GET /stats`.
pub fn serve(bin: &Path, index_dir: &Path) -> Result<Served, String> {
    let mut child = Command::new(bin)
        .arg("serve")
        .arg("--index")
        .arg(index_dir)
        .args(["--port", "0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.strip_prefix("listening on http://") {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    break addr.parse::<SocketAddr>().ok();
                }
            }
            _ => break None,
        }
    };
    // The server prints a few more lines; a thread drains them so a
    // full pipe can never stall it. It ends when the server exits.
    let drain = Some(std::thread::spawn(move || lines.for_each(drop)));
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("d3l serve did not report its address".into());
    };
    let served = Served { child, drain, addr };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok((200, _)) = request_once(served.addr, "GET", "/stats", None) {
            return Ok(served);
        }
        if Instant::now() > deadline {
            return Err("d3l serve never answered GET /stats".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

impl Served {
    /// Peak resident set of the server process (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM in the server's /proc status")?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = request_once(self.addr, "POST", "/admin/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(self.child.try_wait(), Ok(Some(_))) {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Server-side counters at one instant, for windowed deltas.
#[derive(Clone)]
pub struct Scrape {
    /// `d3l_http_request_seconds` for `/query`, all results.
    pub query_hist: HistogramSnapshot,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// 5xx responses plus connections shed at the door.
    pub rejected: u64,
    pub version: u64,
}

/// `GET path` on a connection of its own, closed afterwards: a
/// server worker stays with an idle keep-alive connection, so a held
/// scrape connection would take a worker away from the load.
fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    match request_once(addr, "GET", path, None) {
        Ok((200, body)) => Ok(body),
        Ok((status, _)) => Err(format!("GET {path} answered {status}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

/// Scrape `/metrics` and `/stats` back to back.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let metrics = get(addr, "/metrics")?;
    let stats = get(addr, "/stats")?;
    let stats = Json::parse(&stats).map_err(|e| format!("GET /stats body: {e}"))?;
    let num = |path: &[&str]| -> Result<u64, String> {
        let mut v = &stats;
        for key in path {
            v = v
                .get(key)
                .ok_or_else(|| format!("/stats has no {}", path.join(".")))?;
        }
        v.as_f64()
            .map(|x| x as u64)
            .ok_or_else(|| format!("/stats {} is not a number", path.join(".")))
    };
    Ok(Scrape {
        query_hist: query_histogram(&metrics)?,
        cache_hits: num(&["cache", "hits"])?,
        cache_misses: num(&["cache", "misses"])?,
        cache_evictions: num(&["cache", "evictions"])?,
        rejected: num(&["server", "responses_5xx"])? + num(&["server", "shed_requests"])?,
        version: num(&["engine_version"])?,
    })
}

/// Merge the `/query` request-latency series of every `result`
/// label. Each series is exposed as cumulative buckets up to its last
/// non-empty one, then `+Inf`; differencing within a series recovers
/// the per-bucket counts.
fn query_histogram(metrics: &str) -> Result<HistogramSnapshot, String> {
    let mut snap = HistogramSnapshot::default();
    let mut series = String::new();
    let mut prev = 0u64;
    for line in metrics.lines() {
        let Some(rest) = line.strip_prefix("d3l_http_request_seconds_bucket{") else {
            continue;
        };
        if !rest.contains("endpoint=\"/query\"") {
            continue;
        }
        let (labels, value) = rest
            .rsplit_once("} ")
            .ok_or_else(|| format!("malformed metrics line {line:?}"))?;
        let (key, le) = labels
            .rsplit_once(",le=\"")
            .and_then(|(key, le)| Some((key, le.strip_suffix('"')?)))
            .ok_or_else(|| format!("bucket without le in {line:?}"))?;
        if key != series {
            series = key.to_string();
            prev = 0;
        }
        let slot = if le == "+Inf" {
            NUM_BUCKETS - 1
        } else {
            let secs: f64 = le.parse().map_err(|_| format!("bad le in {line:?}"))?;
            let ns = secs * 1e9;
            BOUNDS_NS
                .iter()
                .position(|&b| (b as f64 - ns).abs() <= b as f64 * 1e-6 + 1.0)
                .ok_or_else(|| format!("unknown bucket bound in {line:?}"))?
        };
        let cum: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("bad count in {line:?}"))?;
        snap.buckets[slot] += cum.saturating_sub(prev);
        prev = cum;
    }
    Ok(snap)
}
