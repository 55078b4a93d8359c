//! The benchmark's workloads: traffic mixes over `vmplace serve`, each
//! chosen to load a different layer.
//!
//! Every workload drives [`CONNECTIONS`] closed-loop connections, each
//! carrying [`STREAMS`] request streams generated by
//! [`vmplace_sim::TraceConfig`]. Traffic comes in *passes*: one pass is
//! one generated trace per connection. Every pass re-opens the
//! connection's streams with `New` (which replaces a stream's server
//! state wholesale), so a pass's answers depend only on that pass's
//! requests and the server's memory stays bounded however many passes a
//! run makes.

use std::time::Duration;
use vmplace_model::{AllocRequest, ResponsePolicy};
use vmplace_sim::{ScenarioConfig, TraceConfig};

/// Client connections (one client thread each).
pub const CONNECTIONS: usize = 2;
/// Request streams per connection.
const STREAMS: usize = 4;
/// Server solver workers.
pub const SERVER_WORKERS: usize = 2;
/// Request ids of pass `p` start at `p * PASS_ID_STRIDE`, so ids stay
/// unique per connection across passes.
const PASS_ID_STRIDE: u64 = 1 << 24;

/// One workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generator for one connection's share of one pass.
    pub trace: TraceConfig,
    /// Serve with `--algo milp` (the exact branch & bound) instead of the
    /// default portfolio engine.
    pub milp: bool,
    /// Passes run before the timed phase. They warm the server up and
    /// are the fixed, seed-determined request set that the answer
    /// digest, the deterministic counters, `mean_min_yield` and the
    /// in-process layer timings are computed over.
    pub gate_passes: usize,
}

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["solve_mix", "resolve_repair", "exact_milp"];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    let scenario = |hosts, services, memory_slack| ScenarioConfig {
        hosts,
        services,
        cov: 0.5,
        memory_slack,
        ..ScenarioConfig::default()
    };
    let base = TraceConfig {
        streams: STREAMS,
        ..TraceConfig::default()
    };
    Some(match name {
        // Full portfolio re-solves: the engine (`core`) does nearly all
        // server work.
        "solve_mix" => Workload {
            name: "solve_mix",
            trace: TraceConfig {
                requests: 40,
                scenario: scenario(16, 40, 0.5),
                mix: (0.35, 0.25, 0.30, 0.10),
                policy: ResponsePolicy::Exact,
                ..base
            },
            milp: false,
            gate_passes: 16,
        },
        // Cheap requests: cached re-solve bursts and accepted delta
        // repairs, so transport, codec and dispatch set the median.
        "resolve_repair" => Workload {
            name: "resolve_repair",
            trace: TraceConfig {
                requests: 800,
                scenario: scenario(16, 40, 0.6),
                mix: (0.10, 0.10, 0.50, 0.30),
                resolve_burst: 4,
                policy: ResponsePolicy::Repaired {
                    tolerance: 0.2,
                    max_migrations: 3,
                },
                ..base
            },
            milp: false,
            gate_passes: 8,
        },
        // Exact branch & bound on small instances whose size never
        // changes: the LP layer does nearly all the work.
        "exact_milp" => Workload {
            name: "exact_milp",
            trace: TraceConfig {
                requests: 20,
                scenario: scenario(3, 8, 0.6),
                mix: (0.0, 0.0, 1.0, 0.0),
                policy: ResponsePolicy::Exact,
                ..base
            },
            milp: true,
            gate_passes: 32,
        },
        _ => return None,
    })
}

impl Workload {
    /// Arguments to `vmplace` that start this workload's server: default
    /// flags (the I/O backend is deliberately not pinned) plus the
    /// worker count and, for the exact workload, the MILP engine.
    pub fn server_args(&self) -> Vec<String> {
        let mut args: Vec<String> = ["serve", "--port", "0", "--workers"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.push(SERVER_WORKERS.to_string());
        if self.milp {
            args.extend(["--algo".to_string(), "milp".to_string()]);
        }
        args
    }

    /// The requests connection `conn` sends in pass `pass` of a run
    /// seeded with `seed`. Distinct `(seed, conn, pass)` triples draw
    /// unrelated instances.
    pub fn pass(&self, seed: u64, conn: usize, pass: usize) -> Vec<AllocRequest> {
        let sub_seed = mix64(mix64(seed) ^ mix64(((conn as u64) << 32) | pass as u64));
        let mut requests = self.trace.generate(sub_seed);
        for r in &mut requests {
            r.id += pass as u64 * PASS_ID_STRIDE;
            // Connection `c` carries streams c, c + CONNECTIONS, …; the
            // server shards streams by `stream % workers`, so each
            // connection has a worker of its own. When the two loops
            // shared workers, cheap requests queued behind the other
            // connection's solves, and the tail depended on how the loops
            // happened to interleave more than on the code.
            r.stream = r.stream * CONNECTIONS as u64 + conn as u64;
        }
        requests
    }
}

/// Duration as fractional microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// SplitMix64 finaliser: spreads nearby seeds over unrelated streams.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
