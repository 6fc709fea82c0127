//! `SymmetricPattern::from_edges` and `gen::spd_from_pattern` assemble
//! their CSC arrays in flat passes; what they return is pinned here to
//! what the per-column-`Vec` and `Coo` assemblies they replaced returned:
//! the structural hash of every generator, every value bit of an SPD fill
//! of each, `from_edges` against a set-based reference on edge lists
//! with duplicates, both directions and self loops, and
//! `SymmetricCsc::permute` against the `Coo` assembly it replaced.

use std::collections::BTreeSet;

use proptest::prelude::*;
use spfactor_matrix::gen::{self, paper};
use spfactor_matrix::{Coo, Permutation, SymmetricCsc, SymmetricPattern};

fn generators() -> Vec<(&'static str, SymmetricPattern)> {
    let mut all = vec![
        ("grid5(7,5)", gen::grid5(7, 5)),
        ("lap9(40,40)", gen::lap9(40, 40)),
        ("grid5_fe(6,4)", gen::grid5_fe(6, 4)),
        ("grid7(4,3,5)", gen::grid7(4, 3, 5)),
        ("frame_shell(6,12)", gen::frame_shell(6, 12)),
        ("lshape(9)", gen::lshape(9)),
        ("power_network(400,40,5)", gen::power_network(400, 40, 5)),
        (
            "random_geometric(300,0.08,11)",
            gen::random_geometric(300, 0.08, 11),
        ),
        ("fig2_grid", paper::fig2_grid().pattern),
    ];
    all.extend(paper::all().into_iter().map(|m| (m.name, m.pattern)));
    all
}

fn fnv(h: &mut u64, x: u64) {
    for byte in x.to_le_bytes() {
        *h = (*h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over every index and every value bit of `m`, column by column.
fn value_bits_hash(m: &SymmetricCsc) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for j in 0..m.n() {
        for (&i, &v) in m.col_rows(j).iter().zip(m.col_values(j)) {
            fnv(&mut h, i as u64);
            fnv(&mut h, v.to_bits());
        }
    }
    h
}

#[test]
fn generators_are_bit_identical_to_the_per_column_assembly() {
    // (structural_hash, value_bits_hash of spd_from_pattern(_, 7)).
    const PINS: [(u64, u64); 14] = [
        (0x5bc275066539d008, 0xa14b0d46faf184d3), // grid5(7,5)
        (0x978e7f1c40027a00, 0x82587e4d41df811c), // lap9(40,40)
        (0x4aae5efb2fb475da, 0x9961aa522fef335c), // grid5_fe(6,4)
        (0x08171022b443c128, 0xc58c9b5564edc37c), // grid7(4,3,5)
        (0x62dc948afccc8f1c, 0x47e42d9223e4e3ea), // frame_shell(6,12)
        (0x1b89757833553565, 0x90d44bbbd1086fe5), // lshape(9)
        (0xdd3ad78e4a05364e, 0x254ed61cd73d955b), // power_network(400,40,5)
        (0xf1991336e7dc95d4, 0x11461b2c0121e0f1), // random_geometric(300,0.08,11)
        (0xff5aaa367e5bd1dc, 0xa226e087db506dad), // fig2_grid
        (0x2c6bc0fe8d369ae2, 0x6aefd4ee1c661e05), // BUS1138
        (0xf7a311e889b20076, 0x68d405f5c60eaaa7), // CANN1072
        (0x61db9cef64231a54, 0xed66d25d875024de), // DWT512
        (0x9e4b5f277d5c323e, 0xb5d1e7cddc46f21d), // LAP30
        (0xce8ea2f81769f3e1, 0xb33871bae8eff067), // LSHP1009
    ];
    let generators = generators();
    assert_eq!(generators.len(), PINS.len());
    for ((name, pattern), (structure, values)) in generators.into_iter().zip(PINS) {
        assert_eq!(pattern.structural_hash(), structure, "{name}: structure");
        let m = gen::spd_from_pattern(&pattern, 7);
        assert_eq!(value_bits_hash(&m), values, "{name}: value bits");
        assert_eq!(m.pattern(), pattern, "{name}: structure of the fill");
    }
}

/// The `Coo` route `spd_from_pattern` used to take is still public; on
/// the same draws it must give the same matrix, bit for bit.
#[test]
fn direct_csc_fill_equals_coo_assembly() {
    for (name, pattern) in generators() {
        let direct = gen::spd_from_pattern(&pattern, 3);
        let mut coo = Coo::with_capacity(pattern.n(), pattern.nnz_lower());
        for j in 0..direct.n() {
            for (&i, &v) in direct.col_rows(j).iter().zip(direct.col_values(j)) {
                coo.push(i, j, v).expect("in bounds");
            }
        }
        let via_coo = coo.to_csc();
        assert_eq!(
            value_bits_hash(&via_coo),
            value_bits_hash(&direct),
            "{name}"
        );
    }
}

/// A fixed shuffle of `0..n` (Fisher–Yates on a 64-bit LCG).
fn shuffled(n: usize, seed: u64) -> Permutation {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        perm.swap(i, (state >> 33) as usize % (i + 1));
    }
    Permutation::from_vec(perm).expect("a shuffle is a bijection")
}

/// `SymmetricCsc::permute` as it was: every entry pushed through `Coo`.
fn permute_via_coo(m: &SymmetricCsc, perm: &Permutation) -> SymmetricCsc {
    let mut coo = Coo::with_capacity(m.n(), m.nnz_lower());
    for j in 0..m.n() {
        for (&i, &v) in m.col_rows(j).iter().zip(m.col_values(j)) {
            coo.push(perm.new_of(i), perm.new_of(j), v)
                .expect("permuted index in bounds");
        }
    }
    coo.to_csc()
}

#[test]
fn permute_is_bit_identical_to_the_coo_assembly() {
    // value_bits_hash of spd_from_pattern(_, 7).permute(shuffled(n, 5)),
    // recorded from the `Coo` route before it was replaced.
    const PINS: [u64; 14] = [
        0x5a1edbb8449f9660, // grid5(7,5)
        0x527f0cd52eed5191, // lap9(40,40)
        0x5236e368f0260b11, // grid5_fe(6,4)
        0x8cb641cc2788b786, // grid7(4,3,5)
        0xbfe2a087818a9329, // frame_shell(6,12)
        0x8c25e5cf0396af2f, // lshape(9)
        0xc80ef04a8c0b70d2, // power_network(400,40,5)
        0x4933ae7914292b25, // random_geometric(300,0.08,11)
        0x23bf3e4cf78d84b8, // fig2_grid
        0xad1c09d18df23e38, // BUS1138
        0x738c54d07ab3e6de, // CANN1072
        0xdc6a35b858304474, // DWT512
        0xc5b02aa223aea3b5, // LAP30
        0xf04409173ad9562b, // LSHP1009
    ];
    let generators = generators();
    assert_eq!(generators.len(), PINS.len());
    for ((name, pattern), pin) in generators.into_iter().zip(PINS) {
        let m = gen::spd_from_pattern(&pattern, 7);
        let perm = shuffled(m.n(), 5);
        let got = m.permute(&perm);
        assert_eq!(got, permute_via_coo(&m, &perm), "{name}");
        assert_eq!(value_bits_hash(&got), pin, "{name}: pinned bits");
        // The result upholds the type's invariants and inverts cleanly.
        let (mut colptr, mut rowidx, mut values) = (vec![0usize], Vec::new(), Vec::new());
        for j in 0..got.n() {
            rowidx.extend_from_slice(got.col_rows(j));
            values.extend_from_slice(got.col_values(j));
            colptr.push(rowidx.len());
        }
        SymmetricCsc::from_parts(got.n(), colptr, rowidx, values).expect("valid CSC");
        assert_eq!(got.permute(&perm.inverted()), m, "{name}: round trip");
        assert_eq!(m.permute(&Permutation::identity(m.n())), m, "{name}");
    }
}

proptest! {
    #[test]
    fn from_edges_equals_set_reference(
        n in 1usize..40,
        raw in proptest::collection::vec((0usize..40, 0usize..40), 0..300),
    ) {
        let edges: Vec<(usize, usize)> = raw.into_iter().map(|(i, j)| (i % n, j % n)).collect();
        let mut cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for &(i, j) in &edges {
            if i != j {
                cols[i.min(j)].insert(i.max(j));
            }
        }
        let mut colptr = vec![0usize];
        let mut rowidx = Vec::new();
        for col in &cols {
            rowidx.extend(col.iter().copied());
            colptr.push(rowidx.len());
        }
        let reference = SymmetricPattern::from_parts(n, colptr, rowidx).expect("valid reference");
        prop_assert_eq!(SymmetricPattern::from_edges(n, edges), reference);
    }
}
