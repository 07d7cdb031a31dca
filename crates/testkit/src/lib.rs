//! Test support for the workspace's suites, benches and bench binaries: a
//! scratch directory removed on drop, and a seeded property loop with the
//! generators its properties draw from. Everything is deterministic per
//! seed — a failure reproduces by running the test again — and there is no
//! shrinking: collection sizes grow with the case index instead, so the
//! first failing case is usually a small one.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mistique_rng::Rng;

/// A directory removed (recursively) when the value is dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Create a fresh directory under `std::env::temp_dir()`. The name joins the
/// process id and a per-process counter; `create_dir` fails on a name that
/// exists (a leftover of a killed run with a recycled pid), so the loop
/// moves on to the next counter value instead of sharing a directory.
pub fn tempdir() -> std::io::Result<TempDir> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir();
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!(".tmp-mistique-{}-{n}", std::process::id()));
        match std::fs::create_dir(&path) {
            Ok(()) => return Ok(TempDir(path)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

/// What a property draws its inputs from: the case's generator, plus how far
/// through the run the case is (which scales collection lengths).
pub struct Gen {
    pub rng: Rng,
    case: usize,
    cases: usize,
}

/// Run `property` on `n` generated cases, all drawn from one stream seeded
/// with `seed`. A panicking case is reported by index and seed, then the
/// panic continues so the test fails with the property's own message.
pub fn cases(n: usize, seed: u64, mut property: impl FnMut(&mut Gen)) {
    let mut g = Gen {
        rng: Rng::seed(seed),
        case: 0,
        cases: n,
    };
    for case in 0..n {
        g.case = case;
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            eprintln!("property failed at case {case} of {n}, seed {seed}");
            resume_unwind(panic);
        }
    }
}

impl Gen {
    /// A collection length from `range`, both ends reachable. The upper end
    /// ramps from the shortest length at the first case to the whole range
    /// at the last.
    pub fn len(&mut self, range: Range<usize>) -> usize {
        assert!(!range.is_empty(), "len: empty range");
        let room = range.end - 1 - range.start;
        let ramp = (room * (self.case + 1)).div_ceil(self.cases);
        self.rng.range(range.start..=range.start + ramp)
    }

    /// A vector of `item` draws whose length comes from [`Gen::len`].
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.len(len)).map(|_| item(&mut self.rng)).collect()
    }

    /// Uniform bytes.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        self.vec(len, |rng| rng.range(0..=u8::MAX))
    }

    /// Uniform 32-bit words.
    pub fn words(&mut self, len: Range<usize>) -> Vec<u32> {
        self.vec(len, |rng| rng.range(0..=u32::MAX))
    }
}

macro_rules! finite_float {
    ($name:ident, $t:ty, $bits:ty) => {
        /// Any finite value: uniform over bit patterns, so over exponents,
        /// with one draw in four an edge — ±0, the smallest subnormal, the
        /// smallest normal, ±MAX.
        pub fn $name(rng: &mut Rng) -> $t {
            let edges = [
                0.0,
                -0.0,
                <$t>::from_bits(1),
                <$t>::MIN_POSITIVE,
                <$t>::MAX,
                <$t>::MIN,
            ];
            if rng.chance(0.25) {
                return edges[rng.range(0..edges.len())];
            }
            loop {
                let v = <$t>::from_bits(rng.next_u64() as $bits);
                if v.is_finite() {
                    return v;
                }
            }
        }
    };
}
finite_float!(finite_f32, f32, u32);
finite_float!(finite_f64, f64, u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdirs_are_distinct_and_removed_on_drop() {
        let (a, b) = (tempdir().unwrap(), tempdir().unwrap());
        assert_ne!(a.path(), b.path());
        let gone = a.path().to_path_buf();
        std::fs::write(gone.join("f"), b"x").unwrap();
        drop(a);
        assert!(!gone.exists() && b.path().is_dir());
    }

    #[test]
    fn lengths_ramp_and_reach_both_ends() {
        let (mut seen, mut first) = ([false; 5], None);
        cases(64, 1, |g| {
            let n = g.len(1..5);
            seen[n] = true;
            first.get_or_insert(n);
            assert_eq!(g.bytes(3..4).len() + g.words(0..1).len(), 3);
        });
        assert_eq!(seen, [false, true, true, true, true]);
        assert!(
            first.unwrap() <= 2,
            "the first case draws from the short end"
        );
    }

    #[test]
    fn finite_floats_are_finite_and_hit_the_edges() {
        let mut rng = Rng::seed(2);
        let floats: Vec<f64> = (0..400).map(|_| finite_f64(&mut rng)).collect();
        assert!(floats.iter().all(|v| v.is_finite()));
        assert!(floats.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
        assert!(floats.iter().any(|v| v.is_subnormal()) && floats.contains(&f64::MAX));
        assert!((0..400).all(|_| finite_f32(&mut rng).is_finite()));
    }

    #[test]
    #[should_panic(expected = "case 3 is bad")]
    fn a_failing_case_keeps_its_own_panic_message() {
        let mut next = 0;
        cases(8, 0, |_| {
            next += 1;
            assert!(next != 4, "case 3 is bad");
        });
    }
}
