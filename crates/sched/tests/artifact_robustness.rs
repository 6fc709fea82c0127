//! Malformed-input robustness for the schedule-artifact reader and
//! rebuilder.
//!
//! The artifact store feeds these parsers bytes read back from disk
//! across process restarts, so — like the HB/MM matrix parsers
//! (`crates/matrix/tests/io_robustness.rs`) — they must *never* panic:
//! every truncated, bit-flipped, or cross-wired file has to come back as
//! a typed error. The corpus covers truncation at every byte offset,
//! fingerprint flips, and key mismatches (a valid artifact presented for
//! the wrong pattern).

use spfactor_matrix::gen;
use spfactor_order::{OrderEngine, Ordering};
use spfactor_partition::{DepsEngine, PartitionParams};
use spfactor_sched::{
    plan, read_artifact_text, rebuild_artifact, ScheduleArtifact, ScheduleKey, Scheme,
};

fn build(cols: usize, nprocs: usize) -> (spfactor_matrix::SymmetricPattern, ScheduleArtifact) {
    let pattern = gen::lap9(cols, cols);
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
        // Parsing a truncated dump must be a typed error or — when the
        // cut happens to land between trailing records — a parse that
        // still rebuilds to the exact fingerprint. Nothing may panic.
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
fn corrupted_schedule_body_is_rejected_not_trusted() {
    let (pattern, artifact) = build(6, 3);
    // Rewire unit 0's processor assignment: the file still parses, but
    // the fingerprint cross-check must catch the divergence.
    let text = artifact.to_text();
    let victim = "A 0 0";
    let swapped = text.replace(victim, "A 0 1");
    assert_ne!(text, swapped, "corpus needs a unit on processor 0");
    let dump = read_artifact_text(swapped.as_bytes()).expect("parses");
    assert!(rebuild_artifact(&pattern, &dump).is_err());
}

#[test]
fn a_schedule_for_zero_processors_is_a_typed_error() {
    // Only an empty schedule can name zero processors and still parse;
    // the allocators assert on that count, so the rebuild must refuse it
    // before it re-runs them.
    let pattern = spfactor_matrix::SymmetricPattern::from_edges(0, []);
    let hash = pattern.structural_hash();
    let text = format!(
        "spfactor-artifact v1\n\
         key hash {hash:016x} n 0 ordering Natural engine direct grain 4 4 width 4 relax 0 scheme block procs 0\n\
         fingerprint 0000000000000000\nperm\nspfactor-schedule v1\nunits 0 procs 0\n"
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
    let (pattern, artifact) = build(5, 2);
    let text = artifact.to_text();
    let header_len = text
        .lines()
        .take(3)
        .map(|l| l.len() + 1)
        .sum::<usize>()
        .min(text.len());
    for pos in 0..header_len {
        let mut bytes = text.clone().into_bytes();
        bytes[pos] ^= 0x20; // case/symbol flip keeps it valid UTF-8-ish
                            // Invalid UTF-8 cannot arise from ASCII ^ 0x20; both outcomes
                            // (parse error, or parse + rebuild verification) must be clean.
        if let Ok(dump) = read_artifact_text(bytes.as_slice()) {
            let _ = rebuild_artifact(&pattern, &dump);
        }
    }
}
