//! Exports a complete schedule (unit blocks, dependency graph, processor
//! assignment) in the plain-text interchange format — the artifact the
//! paper's partitioner hands to its simulator — then reads it back and
//! verifies the round trip.
//!
//! ```text
//! cargo run --release --example export_schedule [-- out.sched]
//! ```

use spfactor::sched::export::{read_schedule, write_schedule};
use spfactor::Pipeline;

fn main() {
    let m = spfactor::matrix::gen::paper::dwt512();
    let r = Pipeline::new(m.pattern.clone())
        .grain(25)
        .processors(8)
        .run();

    let mut buf = Vec::new();
    write_schedule(
        &mut buf,
        r.plan.partition(),
        r.plan.deps(),
        r.plan.assignment(),
    )
    .expect("write schedule");

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &buf).expect("write file");
        println!("wrote {} bytes to {path}", buf.len());
    } else {
        println!(
            "schedule for {}: {} units on {} processors, {} dependency edges",
            m.name,
            r.plan.partition().num_units(),
            r.plan.assignment().nprocs,
            r.plan.deps().num_edges()
        );
        // Show the first few records.
        for line in String::from_utf8_lossy(&buf).lines().take(12) {
            println!("  {line}");
        }
        println!("  ... ({} bytes total; pass a path to save)", buf.len());
    }

    // Round trip.
    let dump = read_schedule(buf.as_slice()).expect("parse schedule");
    assert_eq!(dump.units.len(), r.plan.partition().num_units());
    assert_eq!(dump.nprocs, 8);
    println!("round trip OK: {} units parsed back", dump.units.len());
}
