//! Ad-hoc MILP solver telemetry on the benchmark instances (not a bench).
use vmplace_bench::{milp_seed, small_instance};
use vmplace_lp::{MilpOptions, YieldLp};

fn main() {
    for &(hosts, services) in &[(3usize, 8usize), (4, 8), (4, 10), (4, 12)] {
        let seed = milp_seed(hosts, services);
        let inst = small_instance(hosts, services, seed);
        let ylp = YieldLp::build(&inst).unwrap();
        let ints = ylp.integer_vars();
        let t = std::time::Instant::now();
        let r = vmplace_lp::solve_milp(ylp.lp(), &ints, &MilpOptions::default());
        println!(
            "{hosts}h_{services}s: {:?} nodes={} obj={:.6} simplex_iters={} ({:.1}/node) in {:.3}s",
            r.status,
            r.nodes,
            r.objective.unwrap_or(f64::NAN),
            r.simplex_iterations,
            r.simplex_iterations as f64 / r.nodes as f64,
            t.elapsed().as_secs_f64()
        );
        let f = &r.factor;
        println!(
            "          refactor={} warm_reuse={:.2} fill_nnz={} eta_folds={} snapshots={} eta_clones={} \
             ftran_sparsity={:.3} btran_sparse={}/{} btran_sparsity={:.3} dual_iters={} \
             dual_infeasible={} snapshot_inverse_bytes={} reinversions={}",
            f.refactorisations,
            f.warm_reuse_ratio(),
            f.fill_nnz,
            f.eta_folds,
            f.snapshots,
            f.snapshot_eta_clones,
            f.ftran_sparsity(),
            f.btran_sparse,
            f.btran_solves,
            f.btran_sparsity(),
            f.dual_iterations,
            f.dual_infeasible,
            f.snapshot_inverse_bytes,
            f.snapshot_reinversions
        );
    }
}
