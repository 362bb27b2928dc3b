//! `batch_sweep`: the batch engine's parallel speed-up on the paper's
//! design-space lattice — 7 TDPs × 9 ARs × 4 PDN topologies — comparing
//! the serial path against the persistent batch worker pool.
//!
//! Run with: `cargo bench --bench batch_sweep`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdnspot::prelude::*;

const TDPS: [f64; 7] = [4.0, 10.0, 18.0, 25.0, 36.0, 44.0, 50.0];
const ARS: [f64; 9] = [0.40, 0.45, 0.50, 0.56, 0.60, 0.65, 0.70, 0.75, 0.80];

fn batch_sweep(c: &mut Criterion) {
    let params = ModelParams::paper_defaults();
    let ivr = IvrPdn::new(params.clone());
    let mbvr = MbvrPdn::new(params.clone());
    let ldo = LdoPdn::new(params.clone());
    let iplus = IPlusMbvrPdn::new(params);
    let pdns: [&dyn Pdn; 4] = [&ivr, &mbvr, &ldo, &iplus];
    let grid = SweepGrid::active(&TDPS, &[WorkloadType::MultiThread], &ARS)
        .expect("static lattice is valid");

    let mut group = c.benchmark_group("batch_sweep");
    group.sample_size(10);
    for (label, workers) in [("serial", Workers::Serial), ("parallel", Workers::Auto)] {
        group.bench_with_input(
            BenchmarkId::new("evaluate_grid", label),
            &workers,
            |b, &workers| {
                let cfg = EngineConfig::builder().workers(workers).build().expect("valid config");
                b.iter(|| {
                    let outcome = evaluate(&pdns, &grid, &ClientSoc, &cfg, None);
                    assert_eq!(outcome.stats.failed, 0);
                    outcome
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, batch_sweep);
criterion_main!(benches);
