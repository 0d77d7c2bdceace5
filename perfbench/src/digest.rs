//! Output digests: a 64-bit FNV-1a hash of output bytes, and the table of
//! report digests recorded per workload and seed (`digests.txt`).

/// The recorded report digests, one `workload seed hex-digest` line each.
const RECORDED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The digest recorded for `workload` at `seed` in `table`, if any.
pub fn lookup(table: &str, workload: &str, seed: u64) -> Option<u64> {
    table.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        match (fields.next(), fields.next(), fields.next()) {
            (Some(w), Some(s), Some(d)) if w == workload && s.parse() == Ok(seed) => {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        }
    })
}

/// The digest recorded for `workload` at `seed` in the committed table.
pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    lookup(RECORDED, workload, seed)
}

/// How one output compared with its expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The digest equals the expected one.
    Match,
    /// The digest differs from the expected one.
    Mismatch,
    /// No expectation exists for this output.
    Unrecorded,
}

/// Compare the digest of `bytes` with `expected`.
pub fn check(bytes: &[u8], expected: Option<u64>) -> Verdict {
    match expected {
        Some(digest) if digest == fnv1a(bytes) => Verdict::Match,
        Some(_) => Verdict::Mismatch,
        None => Verdict::Unrecorded,
    }
}

/// Flip the lowest bit of the middle byte: the corruption the output
/// checks are demonstrated against.
pub fn corrupt(bytes: &mut [u8]) {
    if !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_check_fails_when_one_byte_is_flipped() {
        let report = br#"{"dataset": {"ipv6_paths": 346649}}"#.to_vec();
        let expected = Some(fnv1a(&report));
        assert_eq!(check(&report, expected), Verdict::Match);
        let mut flipped = report.clone();
        corrupt(&mut flipped);
        assert_ne!(flipped, report);
        assert_eq!(check(&flipped, expected), Verdict::Mismatch);
        assert_eq!(check(&report, None), Verdict::Unrecorded);
    }

    #[test]
    fn lookup_reads_the_table_by_workload_and_seed() {
        let table = "# comment\npaper-full 1 00000000000000ff\nreplay-10k 1 10\n";
        assert_eq!(lookup(table, "paper-full", 1), Some(0xff));
        assert_eq!(lookup(table, "replay-10k", 1), Some(0x10));
        assert_eq!(lookup(table, "paper-full", 2), None);
        assert_eq!(lookup(table, "internet-100k", 1), None);
    }

    #[test]
    fn the_committed_table_parses() {
        for line in RECORDED.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 3, "malformed line {line:?}");
            assert!(fields[1].parse::<u64>().is_ok(), "bad seed in {line:?}");
            assert!(u64::from_str_radix(fields[2], 16).is_ok(), "bad digest in {line:?}");
        }
    }
}
