//! Property test: the traffic the message-passing runtime *observes*
//! equals the traffic the analytic simulator *predicts* — exactly, per
//! processor and per processor pair — and so do its message and byte
//! counters, on random SPD matrices under the wrap mapping (and, as a
//! bonus, the block mapping). Matrices come from deterministic seeds so
//! failures replay.

use proptest::prelude::*;
use spfactor_matrix::gen;
use spfactor_order::{order, Ordering};
use spfactor_partition::{dependencies, Partition, PartitionParams};
use spfactor_sched::{block_allocation, wrap_allocation};
use spfactor_simulate::{data_traffic, messages, work_distribution, NetworkModel};
use spfactor_symbolic::SymbolicFactor;

fn random_spd(n: usize, deg: f64, seed: u64) -> spfactor_matrix::SymmetricCsc {
    let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
    let p = gen::random_geometric(n, r, seed);
    let perm = order(&p, Ordering::paper_default());
    gen::spd_from_pattern(&p.permute(&perm), seed ^ 0x9e3779b97f4a7c15)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wrap mapping: per-processor and pair-matrix traffic and the
    /// message counters of the executed runtime equal the analytic
    /// prediction exactly, and every reply element corresponds to one
    /// unit of predicted traffic.
    #[test]
    fn prop_wrap_observed_traffic_equals_analytic(
        n in 5usize..45,
        deg in 2.0f64..6.0,
        seed in any::<u64>(),
        nprocs in 1usize..9,
    ) {
        let a = random_spd(n, deg, seed);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let part = Partition::columns(&f);
        let deps = dependencies(&f, &part);
        let assign = wrap_allocation(&part, nprocs);
        let report = spfactor_mp::execute(
            &a, &f, &part, &deps, &assign, &NetworkModel::free(),
        ).expect("random SPD matrix must factor");
        let predicted = data_traffic(&f, &part, &assign);
        prop_assert_eq!(&report.traffic_report(), &predicted);
        let served: usize = report.per_proc.iter().map(|s| s.elements_served).sum();
        prop_assert_eq!(served, predicted.total);
        prop_assert_eq!(&report.work_report(), &work_distribution(&part, &assign));
        prop_assert_eq!(report.message_counts(), messages(&f, &part, &deps, &assign));
    }

    /// Block mapping: same exact agreement on the paper's partitioned
    /// scheme, message counters included.
    #[test]
    fn prop_block_observed_traffic_equals_analytic(
        n in 5usize..40,
        seed in any::<u64>(),
        grain in 1usize..16,
        nprocs in 1usize..7,
    ) {
        let a = random_spd(n, 4.0, seed);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let part = Partition::build(&f, &PartitionParams::with_grain(grain));
        let deps = dependencies(&f, &part);
        let assign = block_allocation(&part, &deps, nprocs);
        let report = spfactor_mp::execute(
            &a, &f, &part, &deps, &assign, &NetworkModel::free(),
        ).expect("random SPD matrix must factor");
        prop_assert_eq!(&report.traffic_report(), &data_traffic(&f, &part, &assign));
        prop_assert_eq!(report.message_counts(), messages(&f, &part, &deps, &assign));
        prop_assert_eq!(&report.factor, &spfactor_numeric::cholesky(&a, &f).unwrap());
    }
}
