//! The parity pin: the fixed-seed fingerprints of all six protocol
//! configurations must reproduce `PARITY_pr5.txt` byte for byte.

#[test]
fn fixed_seed_fingerprints_match_the_pinned_file() {
    let pinned = include_str!("../PARITY_pr5.txt");
    let got: Vec<String> = paxraft::parity::lines().collect();
    for (i, (got, want)) in got.iter().zip(pinned.lines()).enumerate() {
        assert_eq!(got, want, "PARITY_pr5.txt line {}", i + 1);
    }
    let got: String = got.iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(got, pinned, "same lines, same bytes");
}
