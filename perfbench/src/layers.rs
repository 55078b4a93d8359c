//! Per-layer timings: the gate passes replayed in-process through each
//! layer's public entry points, with the benchmark's own code timing
//! every call. Each replay also re-derives the server's answers from
//! that layer alone, so a layer that disagrees with the server is
//! reported as a correctness violation.

use crate::check::Checker;
use crate::load::{ConnRun, SpanLog};
use crate::stats::{mean, median};
use crate::workload::{us, Workload};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use vmplace_core::{EngineHandle, MetaVp};
use vmplace_lp::{FactorStats, MilpOptions, YieldLp};
use vmplace_model::{
    evaluate_placement, AllocRequest, AllocResponse, RequestKind, ResponsePolicy, Solution,
};
use vmplace_net::codec;
use vmplace_service::{try_repair, ServiceAlgo, ServiceConfig, Worker, REPAIR_WINNER};

/// Repetitions of each codec sweep (the median sweep is reported).
const CODEC_REPS: usize = 7;
/// Resident workers of the in-process replay: one per server shard.
const SHARDS: usize = crate::workload::SERVER_WORKERS;

/// Named per-layer values, in report order.
pub type LayerValues = Vec<(&'static str, f64)>;

/// One gate-pass exchange: connection, request, the server's answer.
struct Exchange<'a> {
    conn: usize,
    request: &'a AllocRequest,
    response: &'a AllocResponse,
}

impl Exchange<'_> {
    /// Span tag: the request as the server namespaces it.
    fn tag(&self) -> u64 {
        (self.conn as u64) << 40 | self.request.id
    }

    /// The server-side shard of the request's stream (the server shards
    /// by `stream % workers`; its per-connection namespace leaves the low
    /// bits alone).
    fn shard(&self) -> usize {
        self.request.stream as usize % SHARDS
    }

    /// A violation: `layer` answered this request unlike the server.
    fn disagreement(&self, layer: &str) -> (usize, u64, String) {
        let id = self.request.id;
        let message = format!("request {id}: {layer} disagrees with the server");
        (self.conn, id, message)
    }
}

/// Times every layer over the gate passes. `violations` receives
/// `(connection, request id, message)` for every disagreement between a
/// layer's in-process answer and the server's.
pub fn measure(
    w: &Workload,
    passes: &[Vec<Vec<AllocRequest>>],
    gate: &[ConnRun],
    log: &mut SpanLog,
    violations: &mut Vec<(usize, u64, String)>,
) -> LayerValues {
    let exchanges: Vec<Exchange> = gate
        .iter()
        .enumerate()
        .flat_map(|(conn, run)| {
            run.records.iter().map(move |r| Exchange {
                conn,
                request: &passes[conn][r.pass][r.index],
                response: &r.response,
            })
        })
        .collect();

    let mut values = codec_layer(&exchanges);
    values.extend(process_layer(w, &exchanges, log, violations));
    values.extend(replay_layers(w, &exchanges, log, violations));
    values
}

/// `net`: the v2 codec on the workload's own frames.
fn codec_layer(exchanges: &[Exchange]) -> LayerValues {
    let n = exchanges.len().max(1) as f64;
    let sweep = |f: &mut dyn FnMut()| -> f64 {
        let reps: Vec<f64> = (0..CODEC_REPS)
            .map(|_| {
                let t0 = Instant::now();
                f();
                us(t0.elapsed()) / n
            })
            .collect();
        median(&reps)
    };
    let frames = |encode: &dyn Fn(&mut Vec<u8>, &Exchange)| -> Vec<Vec<u8>> {
        exchanges
            .iter()
            .map(|e| {
                let mut buf = Vec::new();
                encode(&mut buf, e);
                buf
            })
            .collect()
    };
    let req_frames = frames(&|b, e| codec::encode_request(b, e.request));
    let resp_frames = frames(&|b, e| codec::encode_response(b, e.response));
    let mut buf = Vec::with_capacity(1 << 16);
    let encode_req = sweep(&mut || {
        for e in exchanges {
            buf.clear();
            codec::encode_request(&mut buf, black_box(e.request));
            black_box(&buf);
        }
    });
    let encode_resp = sweep(&mut || {
        for e in exchanges {
            buf.clear();
            codec::encode_response(&mut buf, black_box(e.response));
            black_box(&buf);
        }
    });
    let decode_req = sweep(&mut || {
        for f in &req_frames {
            let _ = black_box(codec::decode_request(black_box(&f[codec::HEADER_LEN..])));
        }
    });
    let decode_resp = sweep(&mut || {
        for f in &resp_frames {
            let _ = black_box(codec::decode_response(black_box(&f[codec::HEADER_LEN..])));
        }
    });
    let mean_len = |fs: &[Vec<u8>]| fs.iter().map(Vec::len).sum::<usize>() as f64 / n;
    vec![
        ("net.encode_req_us", encode_req),
        ("net.decode_req_us", decode_req),
        ("net.encode_resp_us", encode_resp),
        ("net.decode_resp_us", decode_resp),
        ("net.req_bytes", mean_len(&req_frames)),
        ("net.resp_bytes", mean_len(&resp_frames)),
    ]
}

/// `service.process_us`: `Worker::process` over the same requests, one
/// worker per shard.
fn process_layer(
    w: &Workload,
    exchanges: &[Exchange],
    log: &mut SpanLog,
    violations: &mut Vec<(usize, u64, String)>,
) -> LayerValues {
    let config = ServiceConfig {
        workers: SHARDS,
        algo: if w.milp {
            ServiceAlgo::Milp
        } else {
            ServiceAlgo::MetaHvpLight
        },
        ..ServiceConfig::default()
    };
    let mut workers: Vec<Worker> = (0..SHARDS).map(|_| Worker::new(&config)).collect();
    let mut process_us = Vec::with_capacity(exchanges.len());
    for e in exchanges {
        // Namespace streams per connection, as the server does.
        let request = AllocRequest {
            stream: (e.conn as u64) << 40 | e.request.stream,
            ..e.request.clone()
        };
        let t0 = Instant::now();
        let answer = workers[e.shard()].process(request);
        let t1 = Instant::now();
        log.record("service.process", t0, t1, None, e.tag());
        process_us.push(us(t1 - t0));
        if !same_answer(&answer, e.response) {
            violations.push(e.disagreement("Worker::process"));
        }
    }
    vec![("service.process_us", mean(&process_us))]
}

/// `service.repair_us`, `core`, `lp` and `model`: every repair and full
/// solve the server ran, re-run through the entry point it used
/// (`try_repair`, the portfolio engine, or the MILP model and branch &
/// bound), each stream's instance replayed with `apply_delta`, and every
/// answer re-evaluated. The server's own previous answer on the stream
/// supplies the warm hint and the repair base, exactly as the worker
/// keeps them.
fn replay_layers(
    w: &Workload,
    exchanges: &[Exchange],
    log: &mut SpanLog,
    violations: &mut Vec<(usize, u64, String)>,
) -> LayerValues {
    let mut engines: Vec<EngineHandle<MetaVp>> = (0..SHARDS)
        .map(|_| EngineHandle::new(MetaVp::metahvp_light().with_telemetry_order()).with_threads(1))
        .collect();
    let mut last: HashMap<(usize, u64), &Solution> = HashMap::new();
    let mut checker = Checker::default();
    let (mut repair_us, mut solve_us, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut build_us, mut milp_us, mut evaluate_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut nodes, mut iterations) = (0u64, 0u64);
    let mut factor = FactorStats::default();

    for e in exchanges {
        let key = (e.conn, e.request.stream);
        if matches!(e.request.kind, RequestKind::New(_)) {
            last.remove(&key);
        }
        let pre_services = checker
            .current(e.conn, e.request.stream)
            .map(|i| i.num_services());
        let Ok(instance) = checker.advance(e.conn, e.request) else {
            continue; // reported by the answer check
        };
        let previous = last.get(&key).copied();
        if let Some(sol) = &e.response.solution {
            let t0 = Instant::now();
            black_box(evaluate_placement(instance, &sol.placement));
            let t1 = Instant::now();
            log.record("model.evaluate", t0, t1, None, e.tag());
            evaluate_us.push(us(t1 - t0));
            last.insert(key, sol);
        }
        if e.response.cached {
            continue;
        }
        let repaired = e.response.winner.as_deref() == Some(REPAIR_WINNER);

        // The worker repairs from its last complete placement, sized for
        // the instance before this request (remapped across a delta).
        let base = previous
            .map(|s| &s.placement)
            .filter(|p| Some(p.len()) == pre_services && p.is_complete());
        let base = match &e.request.kind {
            RequestKind::New(_) => None,
            RequestKind::Delta(d) => base.map(|p| (d.remap_placement(p), true)),
            RequestKind::Resolve => base.map(|p| (p.clone(), false)),
        };
        if let (
            ResponsePolicy::Repaired {
                tolerance,
                max_migrations,
            },
            Some((base, allow_moves)),
        ) = (e.request.policy, base)
        {
            let t0 = Instant::now();
            let repair = try_repair(instance, &base, tolerance, max_migrations, allow_moves);
            let t1 = Instant::now();
            log.record("service.repair", t0, t1, None, e.tag());
            repair_us.push(us(t1 - t0));
            let agrees = match &repair {
                Some(r) => repaired && same_yield(Some(r.solution.min_yield), e.response),
                None => !repaired,
            };
            if !agrees {
                violations.push(e.disagreement("try_repair"));
            }
        }
        if repaired {
            continue;
        }

        if !w.milp {
            let hint = previous.map(|s| s.min_yield);
            let t0 = Instant::now();
            let run = engines[e.shard()].solve_with_hint(instance, hint, None);
            let t1 = Instant::now();
            log.record("core.solve", t0, t1, None, e.tag());
            solve_us.push(us(t1 - t0));
            probes.push(run.probes() as f64);
            if !same_yield(run.solution.map(|s| s.min_yield), e.response) {
                violations.push(e.disagreement("EngineHandle::solve_with_hint"));
            }
            continue;
        }
        let t0 = Instant::now();
        let ylp = YieldLp::build(instance);
        let t1 = Instant::now();
        log.record("lp.build", t0, t1, None, e.tag());
        build_us.push(us(t1 - t0));
        let yield_ = ylp.and_then(|ylp| {
            let mut solver = ylp.exact_solver(MilpOptions::default());
            let t0 = Instant::now();
            let result = solver.solve();
            let t1 = Instant::now();
            log.record("lp.milp", t0, t1, None, e.tag());
            milp_us.push(us(t1 - t0));
            nodes += result.nodes as u64;
            iterations += result.simplex_iterations as u64;
            factor.absorb(&result.factor);
            ylp.decode_milp(result)
                .and_then(|(p, _)| evaluate_placement(instance, &p))
                .map(|s| s.min_yield)
        });
        if !same_yield(yield_, e.response) {
            violations.push(e.disagreement("MilpSolver::solve"));
        }
    }

    let total_milp_us: f64 = milp_us.iter().sum();
    vec![
        ("service.repair_us", mean(&repair_us)),
        ("core.solve_us", mean(&solve_us)),
        ("core.probes_per_solve", mean(&probes)),
        ("lp.build_us", mean(&build_us)),
        ("lp.milp_us", mean(&milp_us)),
        ("lp.nodes", nodes as f64),
        ("lp.simplex_iterations", iterations as f64),
        ("lp.refactorisations", factor.refactorisations as f64),
        ("lp.eta_folds", factor.eta_folds as f64),
        ("lp.warm_reuse_ratio", factor.warm_reuse_ratio()),
        (
            "lp.us_per_iteration",
            if iterations == 0 {
                0.0
            } else {
                total_milp_us / iterations as f64
            },
        ),
        ("model.apply_delta_us", mean(&checker.apply_delta_us)),
        ("model.evaluate_us", mean(&evaluate_us)),
    ]
}

/// Same outcome, winner and yield bits (the digest's fields).
fn same_answer(a: &AllocResponse, b: &AllocResponse) -> bool {
    a.outcome == b.outcome && a.winner == b.winner && same_yield(a.min_yield(), b)
}

fn same_yield(y: Option<f64>, response: &AllocResponse) -> bool {
    y.map(f64::to_bits) == response.min_yield().map(f64::to_bits)
}
