//! Answer checking, off the timed path: the benchmark replays each
//! stream's instance itself and holds every response to checks that do
//! not trust the engine that produced it.

use std::collections::HashMap;
use std::time::Instant;
use vmplace_model::{
    evaluate_placement, AllocRequest, AllocResponse, ProblemInstance, RequestKind, RequestOutcome,
    ResponsePolicy, Solution,
};
use vmplace_service::{yield_upper_bound, REPAIR_WINNER};

/// Slack allowed between two computations of the same yield.
const YIELD_EPS: f64 = 1e-9;

/// Replays every stream's instance (with `apply_delta`, as the server
/// does) and checks each response against the instance it answered.
#[derive(Default)]
pub struct Checker {
    /// Current instance per `(connection, stream)`.
    instances: HashMap<(usize, u64), ProblemInstance>,
    /// Wall time of each `ProblemInstance::apply_delta` call, µs.
    pub apply_delta_us: Vec<f64>,
}

impl Checker {
    /// Advances the replayed instance of `request`'s stream on
    /// connection `conn` and returns the instance the request is
    /// answered on.
    pub fn advance(
        &mut self,
        conn: usize,
        request: &AllocRequest,
    ) -> Result<&ProblemInstance, String> {
        let key = (conn, request.stream);
        match &request.kind {
            RequestKind::New(instance) => {
                self.instances.insert(key, instance.clone());
            }
            RequestKind::Delta(delta) => {
                let current = self
                    .instances
                    .get(&key)
                    .ok_or_else(|| format!("request {}: delta before New", request.id))?;
                let t0 = Instant::now();
                let next = current.apply_delta(delta);
                self.apply_delta_us.push(t0.elapsed().as_secs_f64() * 1e6);
                let next = next.map_err(|e| format!("request {}: {e}", request.id))?;
                self.instances.insert(key, next);
            }
            RequestKind::Resolve => {}
        }
        self.instances
            .get(&key)
            .ok_or_else(|| format!("request {}: resolve before New", request.id))
    }

    /// The replayed instance of `stream` on connection `conn`, if open.
    pub fn current(&self, conn: usize, stream: u64) -> Option<&ProblemInstance> {
        self.instances.get(&(conn, stream))
    }

    /// Advances `request`'s stream and checks `response` against it.
    pub fn observe(
        &mut self,
        conn: usize,
        request: &AllocRequest,
        response: &AllocResponse,
    ) -> Result<(), String> {
        let instance = self.advance(conn, request)?;
        check_answer(instance, request, response)
    }
}

/// Checks one response to `request`, solved on `instance`:
///
/// * it answers this request (id and stream echo);
/// * its outcome is an answer, not a failure (`infeasible` is an answer);
/// * a solution re-evaluates with `evaluate_placement` to the reported
///   minimum yield, satisfies every rigid requirement and every capacity
///   at that yield, and does not exceed the admissible bound
///   `yield_upper_bound`;
/// * a `REPAIR` answer lies within its policy's tolerance of that bound
///   and within its migration budget.
pub fn check_answer(
    instance: &ProblemInstance,
    request: &AllocRequest,
    response: &AllocResponse,
) -> Result<(), String> {
    let id = request.id;
    if response.id != id || response.stream != request.stream {
        return Err(format!(
            "request {id} on stream {} answered by response {} on stream {}",
            request.stream, response.id, response.stream
        ));
    }
    match response.outcome {
        RequestOutcome::Solved | RequestOutcome::TimedOut => {}
        RequestOutcome::Infeasible => {
            return match response.solution {
                None => Ok(()),
                Some(_) => Err(format!(
                    "request {id}: infeasible answer carries a solution"
                )),
            };
        }
        other => return Err(format!("request {id}: outcome {}", other.wire_name())),
    }
    let Some(solution) = &response.solution else {
        return match response.outcome {
            RequestOutcome::Solved => Err(format!("request {id}: solved without a solution")),
            _ => Ok(()),
        };
    };
    check_solution(instance, request.policy, response, solution)
        .map_err(|e| format!("request {id}: {e}"))
}

fn check_solution(
    instance: &ProblemInstance,
    policy: ResponsePolicy,
    response: &AllocResponse,
    solution: &Solution,
) -> Result<(), String> {
    let placement = &solution.placement;
    if placement.len() != instance.num_services() || !placement.is_complete() {
        return Err(format!(
            "placement covers {} of {} services",
            placement.iter().count(),
            instance.num_services()
        ));
    }
    placement.validate(instance).map_err(|e| e.to_string())?;
    let evaluated =
        evaluate_placement(instance, placement).ok_or("placement violates a rigid requirement")?;
    let reported = solution.min_yield;
    if (evaluated.min_yield - reported).abs() > YIELD_EPS {
        return Err(format!(
            "reported min-yield {reported} but the placement evaluates to {}",
            evaluated.min_yield
        ));
    }
    if !placement.feasible_at_yield(instance, reported) {
        return Err(format!("placement exceeds a capacity at yield {reported}"));
    }
    let bound = yield_upper_bound(instance);
    if reported > bound + YIELD_EPS {
        return Err(format!(
            "min-yield {reported} exceeds the upper bound {bound}"
        ));
    }
    if response.winner.as_deref() == Some(REPAIR_WINNER) {
        let ResponsePolicy::Repaired {
            tolerance,
            max_migrations,
        } = policy
        else {
            return Err("repair answer to an exact request".into());
        };
        if reported < bound - tolerance - YIELD_EPS {
            return Err(format!(
                "repair min-yield {reported} is more than {tolerance} below the bound {bound}"
            ));
        }
        match response.migrations {
            Some(m) if m <= max_migrations as u64 => {}
            m => return Err(format!("repair migrations {m:?} exceed {max_migrations}")),
        }
    }
    Ok(())
}

/// FNV-1a digest over the answer-defining fields of a response sequence:
/// id, outcome, winner and the bits of the minimum yield.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one response into the digest.
    pub fn add(&mut self, response: &AllocResponse) {
        self.bytes(&response.id.to_le_bytes());
        self.bytes(response.outcome.wire_name().as_bytes());
        self.bytes(response.winner.as_deref().unwrap_or("-").as_bytes());
        let bits = response.min_yield().map_or(u64::MAX, f64::to_bits);
        self.bytes(&bits.to_le_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::workload;
    use vmplace_service::{ServiceConfig, Worker};

    /// The first pass of `name` on connection 0, answered in-process.
    fn answered(name: &str, seed: u64) -> Vec<(AllocRequest, AllocResponse)> {
        let w = workload(name).expect("known workload");
        let mut worker = Worker::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        w.pass(seed, 0, 0)
            .into_iter()
            .map(|r| (r.clone(), worker.process(r)))
            .collect()
    }

    fn digest_of(answers: &[(AllocRequest, AllocResponse)]) -> Digest {
        let mut d = Digest::default();
        answers.iter().for_each(|(_, r)| d.add(r));
        d
    }

    #[test]
    fn digest_is_stable_on_a_fixed_seed() {
        let a = answered("resolve_repair", 42);
        let b = answered("resolve_repair", 42);
        assert_eq!(digest_of(&a), digest_of(&b));
        assert_ne!(digest_of(&a), digest_of(&answered("resolve_repair", 43)));

        // One flipped yield bit changes it.
        let mut tampered = a.clone();
        let (_, r) = tampered
            .iter_mut()
            .find(|(_, r)| r.solution.is_some())
            .expect("some request is solved");
        let sol = r.solution.as_mut().expect("solved");
        sol.min_yield = f64::from_bits(sol.min_yield.to_bits() ^ 1);
        assert_ne!(digest_of(&a), digest_of(&tampered));
    }

    #[test]
    fn genuine_answers_pass() {
        let mut checker = Checker::default();
        let answers = answered("resolve_repair", 7);
        assert!(answers
            .iter()
            .any(|(_, r)| r.winner.as_deref() == Some(REPAIR_WINNER)));
        for (req, resp) in &answers {
            checker.observe(0, req, resp).expect("genuine answer");
        }
    }

    /// The replayed instance and a solved answer to tamper with.
    fn solved_answer() -> (ProblemInstance, AllocRequest, AllocResponse) {
        let mut checker = Checker::default();
        for (req, resp) in answered("solve_mix", 3) {
            let instance = checker.advance(0, &req).expect("valid trace").clone();
            if resp.outcome == RequestOutcome::Solved {
                return (instance, req, resp);
            }
        }
        panic!("no solved answer in the pass");
    }

    #[test]
    fn rejects_a_wrong_yield() {
        let (instance, req, mut resp) = solved_answer();
        check_answer(&instance, &req, &resp).expect("genuine answer");
        resp.solution.as_mut().expect("solved").min_yield += 0.01;
        let err = check_answer(&instance, &req, &resp).unwrap_err();
        assert!(err.contains("evaluates to"), "{err}");
    }

    #[test]
    fn rejects_an_over_capacity_placement() {
        let (instance, req, mut resp) = solved_answer();
        let sol = resp.solution.as_mut().expect("solved");
        // Pile every service onto node 0: the node cannot host them all.
        for j in 0..instance.num_services() {
            sol.placement.assign(j, 0);
        }
        assert!(check_answer(&instance, &req, &resp).is_err());
    }

    #[test]
    fn rejects_failures_and_misrouted_answers() {
        let (instance, req, resp) = solved_answer();
        let failed = AllocResponse::failed(req.id, req.stream, "boom".into());
        assert!(check_answer(&instance, &req, &failed)
            .unwrap_err()
            .contains("failed"));
        let mut misrouted = resp.clone();
        misrouted.id += 1;
        assert!(check_answer(&instance, &req, &misrouted).is_err());
    }
}
