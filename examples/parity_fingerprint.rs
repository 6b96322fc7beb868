//! Prints an exact behavioral fingerprint of a fixed-seed run for every
//! protocol, used to verify that refactors preserve behavior bit-for-bit:
//! `cargo run --release --example parity_fingerprint | diff PARITY_pr5.txt -`.

fn main() {
    for line in paxraft::parity::lines() {
        println!("{line}");
    }
}
