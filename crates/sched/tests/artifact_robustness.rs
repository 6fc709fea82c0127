//! Malformed-input robustness for the schedule-artifact reader and
//! rebuilder.
//!
//! The artifact store feeds these parsers bytes read back from disk
//! across process restarts, so — like the HB/MM matrix parsers
//! (`crates/matrix/tests/io_robustness.rs`) — they must *never* panic:
//! every truncated, bit-flipped, or cross-wired file has to come back as
//! a typed error. The corpus covers truncation and a flip at every byte
//! offset, fingerprint flips, a permutation that is valid but not the
//! stored one, an artifact whose parts its scheme would not derive, key
//! mismatches (a valid artifact presented for the wrong pattern), and the
//! previous format versions. Every ordering, order engine and scheme
//! writes a key line that reads back to the same plan.
//!
//! The text is four lines — magic, key, fingerprint, permutation — and the
//! schedule is re-derived on load, so the fingerprint is the one check
//! that a rebuilt artifact is the one that was written.

use spfactor_matrix::{gen, SymmetricPattern};
use spfactor_order::{OrderEngine, Ordering};
use spfactor_partition::{build_dependencies, DepsEngine, PartitionParams};
use spfactor_sched::{
    alt, plan, read_artifact_text, rebuild_artifact, ScheduleArtifact, ScheduleKey, Scheme,
};

fn build(cols: usize, nprocs: usize) -> (SymmetricPattern, ScheduleArtifact) {
    build_on(gen::lap9(cols, cols), nprocs)
}

/// `pattern` planned in blocks for `nprocs` processors, paper defaults.
fn build_on(pattern: SymmetricPattern, nprocs: usize) -> (SymmetricPattern, ScheduleArtifact) {
    let key = ScheduleKey::new(
        &pattern,
        Ordering::paper_default(),
        OrderEngine::Direct,
        PartitionParams::default(),
        Scheme::Block,
        nprocs,
    );
    let artifact = plan(&pattern, key, None, DepsEngine::Sweep);
    (pattern, artifact)
}

#[test]
fn truncation_at_every_byte_offset_never_panics() {
    let (pattern, artifact) = build(6, 3);
    let text = artifact.to_text();
    let full_fp = artifact.fingerprint();
    for cut in 0..text.len() {
        let prefix = &text[..cut];
        // Parsing a truncated text must be a typed error or — when the cut
        // drops only the final newline — a parse that still rebuilds to
        // the exact fingerprint. Nothing may panic.
        if let Ok(dump) = read_artifact_text(prefix.as_bytes()) {
            match rebuild_artifact(&pattern, &dump) {
                Ok(rebuilt) => assert_eq!(
                    rebuilt.fingerprint(),
                    full_fp,
                    "cut at {cut} rebuilt a different artifact"
                ),
                Err(e) => assert!(!e.is_empty()),
            }
        }
    }
}

#[test]
fn flipped_fingerprint_is_rejected() {
    let (pattern, artifact) = build(6, 3);
    let fp = artifact.fingerprint();
    let text = artifact
        .to_text()
        .replace(&format!("{fp:016x}"), &format!("{:016x}", fp ^ 1));
    let dump = read_artifact_text(text.as_bytes()).expect("header still parses");
    let err = rebuild_artifact(&pattern, &dump).expect_err("flipped fingerprint must fail");
    assert!(err.contains("fingerprint"), "{err}");
}

#[test]
fn a_swapped_permutation_is_rejected_by_the_fingerprint() {
    let (pattern, artifact) = build(6, 3);
    // Swap two entries: still a valid permutation, which plans without
    // complaint, but not the one the fingerprint was taken over.
    let text = artifact.to_text();
    let (head, perm) = text.split_at(text.find("perm ").expect("perm line"));
    let mut entries: Vec<&str> = perm["perm ".len()..].split_whitespace().collect();
    entries.swap(0, 1);
    let swapped = format!("{head}perm {}\n", entries.join(" "));
    assert_ne!(text, swapped);
    let dump = read_artifact_text(swapped.as_bytes()).expect("still a permutation");
    let err = rebuild_artifact(&pattern, &dump).expect_err("must not be trusted");
    assert!(err.contains("fingerprint"), "{err}");
}

#[test]
fn an_assignment_the_scheme_would_not_derive_does_not_round_trip() {
    // The reason the fingerprint covers the schedule and not only the
    // permutation: an artifact assembled from parts its scheme would not
    // derive writes the same permutation as the planned one, so a
    // fingerprint over the permutation alone would rebuild it into the
    // planned artifact, a different schedule.
    let (pattern, planned) = build(6, 3);
    let partition = planned.partition().clone();
    let deps = build_dependencies(DepsEngine::Sweep, planned.factor(), &partition);
    let assignment = alt::round_robin_allocation(&partition, 3);
    assert_ne!(
        &assignment,
        planned.assignment(),
        "corpus needs another map"
    );
    let built = ScheduleArtifact::new(
        *planned.key(),
        planned.permutation().clone(),
        planned.factor().clone(),
        partition,
        deps,
        assignment,
    );
    let dump = read_artifact_text(built.to_text().as_bytes()).expect("parses");
    assert_eq!(&dump.permutation, planned.permutation());
    let err = rebuild_artifact(&pattern, &dump).expect_err("must not rebuild");
    assert!(err.contains("fingerprint mismatch"), "{err}");
}

#[test]
fn a_schedule_for_zero_processors_is_a_typed_error() {
    // The allocators assert on a zero processor count, so the rebuild
    // must refuse it before it re-runs them.
    let pattern = SymmetricPattern::from_edges(0, []);
    let hash = pattern.structural_hash();
    let text = format!(
        "spfactor-artifact v3\n\
         key hash {hash:016x} n 0 ordering natural engine direct grain 4 width 4 relax 0 scheme block procs 0\n\
         fingerprint 0000000000000000\nperm\n"
    );
    let dump = read_artifact_text(text.as_bytes()).expect("parses");
    let err = rebuild_artifact(&pattern, &dump).expect_err("must be refused");
    assert!(err.contains("zero processors"), "{err}");
}

#[test]
fn key_mismatch_against_the_wrong_pattern_is_typed() {
    let (_, artifact) = build(6, 3);
    let dump = read_artifact_text(artifact.to_text().as_bytes()).expect("parses");
    let other = gen::lap9(7, 7);
    let err = rebuild_artifact(&other, &dump).expect_err("wrong pattern must fail");
    assert!(err.contains("does not match"), "{err}");
}

#[test]
fn flipped_bytes_in_the_header_never_panic() {
    // The header is the whole text now: every byte of it is flipped.
    let (pattern, artifact) = build(5, 2);
    let text = artifact.to_text();
    let full_fp = artifact.fingerprint();
    for pos in 0..text.len() {
        let mut bytes = text.clone().into_bytes();
        // ASCII ^ 0x20 is still ASCII: a case or symbol flip, a digit or a
        // space turned into a control character.
        bytes[pos] ^= 0x20;
        if let Ok(dump) = read_artifact_text(bytes.as_slice()) {
            // Parsing can survive a flip that keeps the value (hex digits
            // read case-blind); the rebuild must then be the exact artifact.
            match rebuild_artifact(&pattern, &dump) {
                Ok(rebuilt) => assert_eq!(
                    rebuilt.fingerprint(),
                    full_fp,
                    "flip at {pos} rebuilt a different artifact"
                ),
                Err(e) => assert!(!e.is_empty()),
            }
        }
    }
}

/// The previous format's text of lap9 2×3 (P = 2, block, paper defaults):
/// the same key, fingerprint and permutation lines, then a line per unit,
/// per predecessor list and per processor.
const V1_TEXT: &str = "spfactor-artifact v1
key hash fae7b7b2c0a878c0 n 6 ordering MultipleMinimumDegree { delta: 0 } engine direct grain 4 4 width 4 relax 0 scheme block procs 2
fingerprint 4e4e75a8eb94b815
perm 0 4 1 5 2 3
spfactor-schedule v1
units 6 procs 2
U 0 0 col 0 4 3
U 1 1 col 1 4 3
U 2 2 col 2 3 8
U 3 3 col 3 3 8
U 4 4 col 4 2 17
U 5 5 col 5 1 10
D 2 0
D 3 1
D 4 0 1 2 3
D 5 0 1 2 3 4
A 0 0
A 1 1
A 2 0
A 3 1
A 4 0
A 5 0
";

/// The v2 text of the same plan: v1's first four lines, the ordering in
/// its `Debug` form and two grains.
const V2_TEXT: &str = "spfactor-artifact v2
key hash fae7b7b2c0a878c0 n 6 ordering MultipleMinimumDegree { delta: 0 } engine direct grain 4 4 width 4 relax 0 scheme block procs 2
fingerprint 4e4e75a8eb94b815
perm 0 4 1 5 2 3
";

/// The current text of the same plan: the ordering by name, one grain,
/// and the fingerprint the earlier versions recorded.
const V3_TEXT: &str = "spfactor-artifact v3
key hash fae7b7b2c0a878c0 n 6 ordering mmd delta 0 engine direct grain 4 width 4 relax 0 scheme block procs 2
fingerprint 4e4e75a8eb94b815
perm 0 4 1 5 2 3
";

#[test]
fn a_previous_version_text_is_a_typed_parse_error() {
    for (version, text) in [("v1", V1_TEXT), ("v2", V2_TEXT)] {
        let err = read_artifact_text(text.as_bytes()).expect_err("an earlier version is not read");
        assert!(
            err.contains(&format!("spfactor-artifact {version}")),
            "{err}"
        );
        // Its body under the current magic is refused too: the key line
        // names the ordering by `Debug` and carries two grains.
        let relabelled = text.replacen(version, "v3", 1);
        assert!(read_artifact_text(relabelled.as_bytes()).is_err());
    }
    // The fingerprint did not change with the format.
    let (pattern, artifact) = build_on(gen::lap9(2, 3), 2);
    assert_eq!(artifact.to_text(), V3_TEXT);
    let dump = read_artifact_text(V3_TEXT.as_bytes()).expect("parses");
    let rebuilt = rebuild_artifact(&pattern, &dump).expect("rebuilds");
    assert_eq!(rebuilt.fingerprint(), 0x4e4e_75a8_eb94_b815);
    assert_eq!(rebuilt.fingerprint(), artifact.fingerprint());
}

#[test]
fn every_ordering_engine_and_scheme_round_trips() {
    let (pattern, planned) = build_on(gen::lap9(5, 4), 3);
    let base = *planned.key();
    let orderings = [
        Ordering::Natural,
        Ordering::ReverseCuthillMcKee,
        Ordering::MultipleMinimumDegree { delta: 0 },
        Ordering::MultipleMinimumDegree { delta: 2 },
        Ordering::NestedDissection,
        Ordering::MinimumFill,
    ];
    for ordering in orderings {
        for order_engine in [OrderEngine::Direct, OrderEngine::Compressed] {
            for scheme in [Scheme::Block, Scheme::Wrap] {
                let key = ScheduleKey {
                    ordering,
                    order_engine,
                    scheme,
                    ..base
                };
                let written = plan(&pattern, key, None, DepsEngine::Sweep);
                let text = written.to_text();
                let dump = read_artifact_text(text.as_bytes()).expect("parses");
                assert_eq!(dump.key, key, "{text}");
                let rebuilt = rebuild_artifact(&pattern, &dump).expect("rebuilds");
                assert_eq!(rebuilt.fingerprint(), written.fingerprint(), "{text}");
                assert_eq!(rebuilt.to_text(), text);
            }
        }
    }
}
