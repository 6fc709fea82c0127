//! The table/figure regenerators (the source of `EXPERIMENTS.md`'s
//! measured columns): Tables 1–5 and Figures 2–3 of the paper, printed
//! side by side with the published values.
//!
//! ```text
//! cargo run --release -p spfactor-bench --bin all_tables                  # all seven
//! cargo run --release -p spfactor-bench --bin all_tables -- table2 fig3   # the named ones
//! ```

use spfactor::matrix::plot::ascii_lower_exact;
use spfactor::matrix::stats::structure_stats;
use spfactor::partition::{identify_clusters, ClusterKind, Partition, PartitionParams, UnitShape};
use spfactor::{Ordering, SymbolicFactor, SymmetricPattern};
use spfactor_bench::{paper, rel, run_block, run_wrap};

const SECTIONS: [(&str, fn()); 7] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("fig2", fig2),
    ("fig3", fig3),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names
        .iter()
        .find(|name| SECTIONS.iter().all(|(s, _)| s != name))
    {
        eprintln!(
            "unknown section {unknown}; the sections are {}",
            SECTIONS.map(|(s, _)| s).join(", ")
        );
        std::process::exit(2);
    }
    for (name, section) in SECTIONS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            println!("==================== {name} ====================");
            section();
            println!();
        }
    }
}

/// Table 1: the test matrices and their factor sizes under the paper's
/// ordering.
fn table1() {
    println!("Table 1: Selected test matrices (paper / measured)");
    println!(
        "{:>9} | {:>5} {:>5} | {:>7} {:>7} {:>6} | {:>7} {:>7} {:>6}",
        "matrix", "n(p)", "n", "nnzA(p)", "nnzA", "dev", "nnzL(p)", "nnzL", "dev"
    );
    for (m, row) in spfactor::matrix::gen::paper::all()
        .iter()
        .zip(&paper::TABLE1)
    {
        assert_eq!(m.name, row.matrix);
        let s = structure_stats(&m.pattern);
        let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
        let f = SymbolicFactor::from_pattern(&m.pattern.permute(&perm));
        println!(
            "{:>9} | {:>5} {:>5} | {:>7} {:>7} {:>6} | {:>7} {:>7} {:>6}",
            m.name,
            row.n,
            s.n,
            row.nnz_a,
            s.nnz_lower,
            rel(s.nnz_lower as f64, row.nnz_a as f64),
            row.nnz_l,
            f.nnz_lower(),
            rel(f.nnz_lower() as f64, row.nnz_l as f64),
        );
    }
    println!();
    println!("(p) columns are the paper's values. LAP30 is exact by construction;");
    println!("the other four are structure-equivalent substitutes (DESIGN.md), and");
    println!("nnz(L) additionally differs through MMD tie-breaking.");
}

/// Table 2: block-mapping communication (total and mean data traffic)
/// for grain sizes 4 and 25 at P = 4, 16, 32.
fn table2() {
    println!("Table 2: Block mapping communication (paper / measured)");
    println!(
        "{:>9} {:>3} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6} | {:>7} {:>7}",
        "matrix",
        "P",
        "tot g4p",
        "tot g4",
        "dev",
        "tot g25p",
        "tot g25",
        "dev",
        "mean g4",
        "mean g25"
    );
    let matrices = spfactor::matrix::gen::paper::all();
    for row in &paper::TABLE2 {
        let m = matrices.iter().find(|m| m.name == row.matrix).unwrap();
        let g4 = run_block(m, 4, 4, row.nprocs);
        let g25 = run_block(m, 25, 4, row.nprocs);
        println!(
            "{:>9} {:>3} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6} | {:>7.1} {:>7.1}",
            row.matrix,
            row.nprocs,
            row.total_g4,
            g4.traffic.total,
            rel(g4.traffic.total as f64, row.total_g4 as f64),
            row.total_g25,
            g25.traffic.total,
            rel(g25.traffic.total as f64, row.total_g25 as f64),
            g4.traffic.mean_f64(),
            g25.traffic.mean_f64(),
        );
    }
    println!();
    println!("Shape checks the paper draws from this table:");
    println!("  * total communication increases with P for every matrix;");
    println!("  * raising the grain from 4 to 25 reduces communication substantially.");
}

/// Table 3: block-mapping work distribution (mean work and load
/// imbalance factor Δ) for grain sizes 4 and 25 at P = 4, 16, 32.
fn table3() {
    println!("Table 3: Block mapping work distribution (paper / measured)");
    println!(
        "{:>9} {:>3} | {:>8} {:>8} {:>6} | {:>7} {:>7} | {:>7} {:>7}",
        "matrix", "P", "mean(p)", "mean", "dev", "Δg4(p)", "Δg4", "Δg25(p)", "Δg25"
    );
    let matrices = spfactor::matrix::gen::paper::all();
    for row in &paper::TABLE3 {
        let m = matrices.iter().find(|m| m.name == row.matrix).unwrap();
        let g4 = run_block(m, 4, 4, row.nprocs);
        let g25 = run_block(m, 25, 4, row.nprocs);
        println!(
            "{:>9} {:>3} | {:>8} {:>8.0} {:>6} | {:>7.2} {:>7.2} | {:>7.2} {:>7.2}",
            row.matrix,
            row.nprocs,
            row.mean_work,
            g4.work.mean(),
            rel(g4.work.mean(), row.mean_work as f64),
            row.delta_g4,
            g4.work.imbalance(),
            row.delta_g25,
            g25.work.imbalance(),
        );
    }
    println!();
    println!("Shape checks: Δ grows with the grain size and with P — blocking");
    println!("trades balance for locality.");
}

/// Table 4: variation with minimum cluster width on LAP30 (g = 4). The
/// paper sweeps widths 2, 4, 8; we extend to 12, 16 and 24 because our
/// MMD's supernode distribution shifts the crossover.
fn table4() {
    let m = spfactor::matrix::gen::paper::lap30();
    println!("Table 4: Variation with minimum cluster width, LAP30, g = 4");
    println!(
        "{:>5} {:>3} | {:>8} {:>8} {:>6} | {:>7} {:>7} | {:>7} {:>7}",
        "width", "P", "tot(p)", "tot", "dev", "mean(p)", "mean", "Δ(p)", "Δ"
    );
    for row in &paper::TABLE4 {
        let r = run_block(&m, 4, row.width, row.nprocs);
        println!(
            "{:>5} {:>3} | {:>8} {:>8} {:>6} | {:>7} {:>7.1} | {:>7.2} {:>7.2}",
            row.width,
            row.nprocs,
            row.total,
            r.traffic.total,
            rel(r.traffic.total as f64, row.total as f64),
            row.mean,
            r.traffic.mean_f64(),
            row.delta,
            r.work.imbalance(),
        );
    }
    println!();
    println!("Extended sweep (no paper values; shows where our crossover falls):");
    println!("{:>5} {:>3} | {:>8} | {:>7}", "width", "P", "total", "Δ");
    for width in [12usize, 16, 24] {
        for nprocs in [4usize, 16, 32] {
            let r = run_block(&m, 4, width, nprocs);
            println!(
                "{:>5} {:>3} | {:>8} | {:>7.2}",
                width,
                nprocs,
                r.traffic.total,
                r.work.imbalance()
            );
        }
    }
    println!();
    println!("Shape: widening the acceptable cluster eventually cuts traffic and");
    println!("raises Δ — communication and balance move complementarily.");
}

/// Table 5: the wrap-mapped column baseline at P = 1, 4, 16, 32 on all
/// five matrices.
fn table5() {
    println!("Table 5: Wrap mapping (paper / measured)");
    println!(
        "{:>9} {:>3} | {:>8} {:>8} {:>6} | {:>7} {:>7} | {:>8} {:>8} | {:>6} {:>6}",
        "matrix", "P", "tot(p)", "tot", "dev", "mean(p)", "mean", "Wmean(p)", "Wmean", "Δ(p)", "Δ"
    );
    let matrices = spfactor::matrix::gen::paper::all();
    for row in &paper::TABLE5 {
        let m = matrices.iter().find(|m| m.name == row.matrix).unwrap();
        let r = run_wrap(m, row.nprocs);
        println!(
            "{:>9} {:>3} | {:>8} {:>8} {:>6} | {:>7} {:>7.1} | {:>8} {:>8.0} | {:>6.2} {:>6.2}",
            row.matrix,
            row.nprocs,
            row.total,
            r.traffic.total,
            rel(r.traffic.total as f64, row.total as f64),
            row.mean,
            r.traffic.mean_f64(),
            row.mean_work,
            r.work.mean(),
            row.delta,
            r.work.imbalance(),
        );
    }
    println!();
    println!("Shape checks: P = 1 communicates nothing; traffic grows with P;");
    println!("Δ stays small — wrap's uniform column distribution balances well.");
}

/// Figure 2: the filled 41×41 matrix of the 5-point finite-element 5×5
/// grid under MMD, rendered in ASCII, plus the cluster decomposition the
/// paper describes in §3.1.
fn fig2() {
    let m = spfactor::matrix::gen::paper::fig2_grid();
    let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
    let factor = SymbolicFactor::from_pattern(&m.pattern.permute(&perm));
    println!(
        "Figure 2: {} — n = {}, nnz(L) = {} (fill {})",
        m.description,
        m.pattern.n(),
        factor.nnz_lower(),
        factor.fill_in()
    );
    println!("{}", ascii_lower_exact(&factor.to_pattern()));

    let mut params = PartitionParams::with_grain(4);
    params.min_cluster_width = 2;
    let clusters = identify_clusters(&factor, &params);
    let strips = clusters.iter().filter(|c| !c.is_single()).count();
    println!(
        "{} clusters ({} strips, {} single columns):",
        clusters.len(),
        strips,
        clusters.len() - strips
    );
    for c in &clusters {
        match &c.kind {
            ClusterKind::SingleColumn => println!("  cluster {:2}: column {}", c.id + 1, c.cols.lo),
            ClusterKind::Strip { rect_rows } => println!(
                "  cluster {:2}: columns {}, triangle width {}, {} rectangle(s)",
                c.id + 1,
                c.cols,
                c.width(),
                rect_rows.len()
            ),
        }
    }
}

/// Figure 3: how a multi-column cluster is partitioned into unit blocks
/// — the triangle into sub-triangles and interior rectangles, each
/// below-rectangle into a grid — and the §3.4 allocation order.
fn fig3() {
    // A dense 8-column cluster with two below-rectangles, mimicking the
    // figure: columns 0..8 dense; rows 10..14 and 16..18 dense below.
    let mut edges = Vec::new();
    for a in 0..8usize {
        for b in (a + 1)..8 {
            edges.push((b, a));
        }
        for r in 10..14 {
            edges.push((r, a));
        }
        for r in 16..18 {
            edges.push((r, a));
        }
    }
    // Make the tail rows reach each other so the factor keeps them dense.
    for a in 10..19usize {
        for b in (a + 1)..19 {
            edges.push((b, a));
        }
    }
    let p = SymmetricPattern::from_edges(19, edges);
    let f = SymbolicFactor::from_pattern(&p);
    let mut params = PartitionParams::with_grain(4);
    params.min_cluster_width = 2;
    let part = Partition::build(&f, &params);

    println!("Figure 3: partitioning a cluster into unit blocks (grain 4)");
    for cl in &part.clusters {
        println!(
            "cluster {}: columns {} ({})",
            cl.id,
            cl.cols,
            if cl.is_single() { "single" } else { "strip" }
        );
    }
    println!();
    println!("unit blocks in allocation order:");
    for u in &part.units {
        match &u.shape {
            UnitShape::Column { col } => {
                println!(
                    "  unit {:2}: column {col} ({} elems, work {})",
                    u.id, u.elements, u.work
                )
            }
            UnitShape::Triangle { extent } => println!(
                "  unit {:2}: triangle {extent} ({} elems, work {})",
                u.id, u.elements, u.work
            ),
            UnitShape::Rectangle { cols, rows } => println!(
                "  unit {:2}: rectangle cols {cols} x rows {rows} ({} elems, work {})",
                u.id, u.elements, u.work
            ),
        }
    }
}
