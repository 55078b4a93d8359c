//! The load generator: closed-loop clients, one request outstanding per
//! connection, and the in-memory span log of the traced run.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use vmplace_model::{AllocRequest, AllocResponse};
use vmplace_net::Client;

/// One answered request.
pub struct Record {
    /// Index of the pass (into the connection's pass list).
    pub pass: usize,
    /// Index of the request within its pass.
    pub index: usize,
    /// Submit to response, as the client saw it.
    pub latency: Duration,
    /// Time spent in `Client::submit`.
    pub submit: Duration,
    /// Time spent in `Client::recv_response` (flush, wait, decode).
    pub recv: Duration,
    /// When the response arrived.
    pub done: Instant,
    /// The answer.
    pub response: AllocResponse,
}

/// When a timed phase ends.
#[derive(Clone, Copy)]
pub struct StopRule {
    /// No request starts after this instant once `min_records` are in…
    pub deadline: Instant,
    /// …so each connection answers at least this many requests…
    pub min_records: usize,
    /// …unless this hard limit passes first.
    pub hard_limit: Instant,
}

impl StopRule {
    fn stop(&self, now: Instant, records: usize) -> bool {
        (now >= self.deadline && records >= self.min_records) || now >= self.hard_limit
    }
}

/// One timed span: the benchmark's own calls into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `net.client_recv`.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
    /// Request the span served (`connection << 40 | id`).
    pub request: u64,
}

/// Spans kept in memory and written out when the benchmark ends.
pub struct SpanLog {
    epoch: Instant,
    /// Spans in the order they were closed or opened.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log timing from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Appends the spans of a log with the same epoch (parents re-based).
    pub fn append(&mut self, other: SpanLog) {
        debug_assert_eq!(self.epoch, other.epoch, "logs must share an epoch");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// What one connection did in a phase.
pub struct ConnRun {
    /// Answered requests, in submission order.
    pub records: Vec<Record>,
    /// A transport error that ended the connection's loop early.
    pub error: Option<String>,
    /// Client-side spans (traced phases only).
    pub spans: Option<SpanLog>,
}

/// Drives one connection in a closed loop: submit one request, wait for
/// its answer, repeat. Walks `order` over `passes`; stops at the end of
/// `order` or by `stop`.
pub fn drive(
    client: &mut Client,
    conn: usize,
    passes: &[Vec<AllocRequest>],
    order: impl Iterator<Item = usize>,
    stop: Option<StopRule>,
    mut spans: Option<SpanLog>,
) -> ConnRun {
    let mut records = Vec::new();
    let mut error = None;
    'passes: for pass in order {
        for (index, request) in passes[pass].iter().enumerate() {
            let t0 = Instant::now();
            if stop.is_some_and(|s| s.stop(t0, records.len())) {
                break 'passes;
            }
            let submitted = client.submit(request);
            let t1 = Instant::now();
            let reply = submitted.and_then(|()| client.recv_response());
            let t2 = Instant::now();
            let response = match reply {
                Ok(r) => r,
                Err(e) => {
                    error = Some(format!("connection {conn}, request {}: {e}", request.id));
                    break 'passes;
                }
            };
            if let Some(log) = &mut spans {
                let tag = (conn as u64) << 40 | request.id;
                let root = log.record("request", t0, t2, None, tag);
                log.record("net.client_submit", t0, t1, Some(root), tag);
                log.record("net.client_recv", t1, t2, Some(root), tag);
            }
            records.push(Record {
                pass,
                index,
                latency: t2 - t0,
                submit: t1 - t0,
                recv: t2 - t1,
                done: t2,
                response,
            });
        }
    }
    ConnRun {
        records,
        error,
        spans,
    }
}

/// Calls `tick` with the current instant at the start of a phase, every
/// `every` while its clients run, and at its end.
pub struct Ticker<'a> {
    pub every: Duration,
    pub tick: &'a mut dyn FnMut(Instant),
}

/// Runs every connection's closed loop on its own thread, all released
/// together; returns each connection's run and the phase's wall time.
/// The calling thread sleeps between the ticks of `ticker`, if any.
pub fn run_phase(
    clients: &mut [Client],
    passes: &[Vec<Vec<AllocRequest>>],
    order: &(dyn Fn() -> Box<dyn Iterator<Item = usize>> + Sync),
    stop: Option<StopRule>,
    trace_epoch: Option<Instant>,
    mut ticker: Option<Ticker>,
) -> (Vec<ConnRun>, Duration) {
    let barrier = Barrier::new(clients.len() + 1);
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let barrier = &barrier;
                let passes = &passes[conn];
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    barrier.wait();
                    let spans = trace_epoch.map(SpanLog::new);
                    let run = drive(client, conn, passes, order(), stop, spans);
                    // The receiver outlives the scope; a send cannot fail.
                    let _ = done_tx.send(());
                    run
                })
            })
            .collect();
        drop(done_tx);
        barrier.wait();
        let t0 = Instant::now();
        if let Some(t) = &mut ticker {
            (t.tick)(t0);
            let mut next = t0 + t.every;
            let mut running = handles.len();
            while running > 0 {
                match done_rx.recv_timeout(next.saturating_duration_since(Instant::now())) {
                    Ok(()) => running -= 1,
                    Err(RecvTimeoutError::Timeout) => {
                        (t.tick)(Instant::now());
                        next += t.every;
                    }
                    // A client thread panicked; `join` reports it below.
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        let runs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let end = Instant::now();
        if let Some(t) = &mut ticker {
            (t.tick)(end);
        }
        (runs, end - t0)
    })
}
