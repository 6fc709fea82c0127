//! Wrap vs. block communication *as executed*: runs the paper's test
//! matrices through the message-passing backend and compares the traffic
//! the virtual machine actually observed against the analytic
//! prediction, along with the message/byte tallies and the makespan
//! `simulate_timed` gives the same schedule, dependency stalls included.
//!
//! ```text
//! cargo run --release --example message_passing
//! ```

use spfactor::simulate::timed::{simulate_timed, OrderPolicy};
use spfactor::{ExecutionBackend, NetworkModel, Pipeline, Scheme};

fn main() {
    let nprocs = 16;
    let model = NetworkModel::default();
    println!(
        "P = {nprocs}, network: latency {}, {} per element, {} per work unit",
        model.latency, model.per_element, model.per_work
    );
    println!(
        "{:>9} {:>5} | {:>9} {:>9} {:>5} | {:>8} {:>9} {:>9} | {:>9}",
        "matrix", "map", "predicted", "observed", "match", "msgs", "bytes", "cache hit", "makespan"
    );
    for m in spfactor::matrix::gen::paper::all() {
        for scheme in [Scheme::Block, Scheme::Wrap] {
            let mut pipe = Pipeline::new(m.pattern.clone())
                .scheme(scheme)
                .processors(nprocs)
                .backend(ExecutionBackend::MessagePassing);
            if scheme == Scheme::Block {
                pipe = pipe.grain(25);
            }
            let r = pipe.run();
            let exec = r.execution.as_ref().expect("backend ran");
            let observed = exec.traffic_report();
            let plan = &r.plan;
            let timed = simulate_timed(
                plan.factor(),
                plan.partition(),
                plan.deps(),
                plan.assignment(),
                &model,
                OrderPolicy::ScanOrder,
                None,
            );
            println!(
                "{:>9} {:>5} | {:>9} {:>9} {:>5} | {:>8} {:>9} {:>9} | {:>9.1}",
                m.name,
                scheme.name(),
                r.traffic.total,
                observed.total,
                if observed == r.traffic { "yes" } else { "NO" },
                exec.msgs_total(),
                exec.bytes_total(),
                exec.cache_hits_total(),
                timed.makespan,
            );
        }
    }
    println!();
    println!("\"observed\" is what the virtual processors actually fetched over");
    println!("messages; it equals the analytic prediction element for element.");
    println!("\"makespan\" is simulate_timed under the same NetworkModel: block");
    println!("mapping moves less data, but wrap can still finish first when the");
    println!("network is fast and its better load balance dominates.");
}
