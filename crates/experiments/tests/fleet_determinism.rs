//! Property: the fleet-sharded sweeps are invariant under the worker
//! count — `--jobs 1`, `--jobs 2`, and `--jobs N` must produce
//! identical traces and byte-identical derived CSVs.

use ppep_experiments::common::{Context, Scale, TraceStore, DEFAULT_SEED};
use ppep_experiments::{fig02_model_error, fleet, report};
use ppep_models::trainer::TrainingBudget;
use ppep_types::VfStateId;
use ppep_workloads::combos::instances;
use proptest::prelude::*;

/// A tiny sweep (2 combos x 2 states, short budget) so the property
/// can afford many cases.
fn tiny_sweep(seed: u64, jobs: usize) -> TraceStore {
    let ctx = Context::fx8320(Scale::Quick, seed);
    let table = ctx.rig.config().topology.vf_table().clone();
    let roster = vec![
        instances("403.gcc", 1, seed),
        instances("458.sjeng", 2, seed),
    ];
    let vfs = [table.lowest(), table.highest()];
    let mut budget = TrainingBudget::quick();
    budget.warmup_intervals = 1;
    budget.record_intervals = 2;
    TraceStore::collect_sharded(&ctx.rig, &roster, &vfs, &budget, jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_collection_is_worker_count_invariant(
        seed in 1u64..500,
        jobs in 2usize..9,
    ) {
        let serial = tiny_sweep(seed, 1);
        let sharded = tiny_sweep(seed, jobs);
        prop_assert_eq!(serial.traces(), sharded.traces());
    }

    #[test]
    fn map_indexed_preserves_order_under_any_worker_count(
        items in 0usize..120,
        jobs in 1usize..17,
    ) {
        let expected: Vec<usize> = (0..items).map(|i| i.wrapping_mul(7)).collect();
        let (got, _) = fleet::map_indexed(items, jobs, |i, _| i.wrapping_mul(7));
        prop_assert_eq!(got, expected);
    }
}

/// The headline acceptance check: at quick scale (the full roster
/// across the whole VF ladder), a sharded store holds the serial
/// store's traces and derives a byte-identical figure CSV.
#[test]
fn fig02_csv_is_byte_identical_across_worker_counts() {
    let table = Context::fx8320(Scale::Quick, DEFAULT_SEED)
        .rig
        .config()
        .topology
        .vf_table()
        .clone();
    let vfs: Vec<VfStateId> = table.states().collect();

    let mut baseline: Option<(TraceStore, String)> = None;
    for jobs in [1, 4] {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED).with_jobs(jobs);
        let store = TraceStore::collect_sharded(
            &ctx.rig,
            &ctx.scale.roster(ctx.seed),
            &vfs,
            &ctx.scale.budget(),
            ctx.jobs,
        );
        let csv = report::fig02_csv(&fig02_model_error::run_with_store(&ctx, &store).unwrap());
        assert!(!csv.is_empty());
        match &baseline {
            None => baseline = Some((store, csv)),
            Some((serial, b)) => {
                assert!(
                    serial.traces() == store.traces(),
                    "sharded traces diverged from the serial ones at jobs={jobs}"
                );
                assert_eq!(
                    b.as_bytes(),
                    csv.as_bytes(),
                    "fig2.csv drifted at jobs={jobs}"
                );
            }
        }
    }
}
