//! Load generation: open-loop streams on a fixed schedule and
//! closed-loop streams, each over its own keep-alive connections.
//!
//! Open-loop requests are timed from the moment they were due, not
//! from when a free connection sent them, so a stall also charges the
//! requests queued behind it. A request that fails at the transport
//! level or draws a non-2xx status is recorded, never retried, and
//! counted against the attempts.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use d3l_server::Client;

/// One HTTP request to play.
pub struct Req {
    pub method: &'static str,
    pub path: String,
    pub body: Option<Arc<str>>,
}

impl Req {
    pub fn post(path: &str, body: Arc<str>) -> Self {
        Req {
            method: "POST",
            path: path.to_string(),
            body: Some(body),
        }
    }
}

/// What happened to one request. Times are offsets from the origin
/// the stream was started with.
pub struct Outcome {
    /// Index into the stream's requests.
    pub idx: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// HTTP status, or 0 for a transport error or timeout.
    pub status: u16,
    /// The response body, when the stream's `keep` predicate asked
    /// for it (empty otherwise).
    pub body: String,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Latency in ms from the due time (open loop) or send time.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

#[derive(Clone, Copy)]
pub enum Pace {
    /// Request `i` is due at `start + i / rate`.
    Open { rate: f64 },
    /// Each connection sends its next request when the last returns.
    Closed,
}

/// Play `reqs` in order from `start` until `deadline` (or until they
/// run out) over `conns` connections, keeping the bodies of the
/// requests `keep` selects. Outcomes come back sorted by request
/// index.
#[allow(clippy::too_many_arguments)]
pub fn play(
    addr: SocketAddr,
    reqs: &[Req],
    pace: Pace,
    conns: usize,
    origin: Instant,
    start: Instant,
    deadline: Instant,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut client: Option<Client> = None;
                let mut mine = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= reqs.len() {
                        break;
                    }
                    let due = match pace {
                        Pace::Open { rate } => start + Duration::from_secs_f64(idx as f64 / rate),
                        Pace::Closed => Instant::now(),
                    };
                    if due >= deadline {
                        break;
                    }
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let (status, mut body) = send(&mut client, addr, &reqs[idx]);
                    let done = Instant::now();
                    if !keep(idx) {
                        body = String::new();
                    }
                    mine.push(Outcome {
                        idx,
                        due: due - origin,
                        sent: sent - origin,
                        done: done - origin,
                        status,
                        body,
                    });
                }
                out.lock().expect("no outcome writer panics").extend(mine);
            });
        }
    });
    let mut out = out.into_inner().expect("no outcome writer panics");
    out.sort_by_key(|o| o.idx);
    out
}

/// Send one request on the connection, reconnecting after an error.
fn send(client: &mut Option<Client>, addr: SocketAddr, req: &Req) -> (u16, String) {
    if client.is_none() {
        match Client::connect(addr) {
            Ok(c) => *client = Some(c),
            Err(_) => return (0, String::new()),
        }
    }
    let c = client.as_mut().expect("connected above");
    match c.request(req.method, &req.path, req.body.as_deref()) {
        Ok((status, body)) => {
            if status == 503 {
                // A shed connection is closed by the server.
                *client = None;
            }
            (status, body)
        }
        Err(_) => {
            *client = None;
            (0, String::new())
        }
    }
}
