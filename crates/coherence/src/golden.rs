//! Golden digests of complete machine statistics.
//!
//! Each entry pins an FNV-1a digest of the `Debug` rendering of a
//! machine's full statistics after a trace-driven run of one synthetic
//! application at `repro`'s default seed, paper cache geometry, caches
//! starting empty. The digests were generated once from the
//! explicit-directory implementation and are never regenerated: a change
//! that moves any counter, however slightly, fails here even when the
//! rounded exhibit tables would not show it.
//!
//! The debug suite checks a subset that fits its time budget; release
//! builds check every entry.

use std::fmt::Debug;

use abs_trace::{apps, Scheduler, SpmdApp};

use crate::{CacheGeometry, DirectorySystem, PointerLimit, SnoopyBus, SyncCaching};

/// `repro`'s default seed.
const SEED: u64 = 0x1989_0605;

use PointerLimit::{Full, Limited};
use SyncCaching::{Cached, UncachedShared, UncachedSync};

/// `(app, processors, pointer limit, mode, digest)` for `DirectorySystem`:
/// every app × the Table-1 pointer sweep × every caching mode at 16
/// processors, and SIMPLE at the paper's 64.
#[rustfmt::skip]
const DIRECTORY: &[(&str, usize, PointerLimit, SyncCaching, u64)] = &[
    ("FFT", 16, Limited(2), Cached, 0x982860c5e440fca7),
    ("FFT", 16, Limited(2), UncachedSync, 0x8858edc172769978),
    ("FFT", 16, Limited(2), UncachedShared, 0x205fec32254086df),
    ("FFT", 16, Limited(3), Cached, 0xf2d2728b88d7aa1c),
    ("FFT", 16, Limited(3), UncachedSync, 0xf4184159e2c62c1e),
    ("FFT", 16, Limited(3), UncachedShared, 0x205fec32254086df),
    ("FFT", 16, Limited(4), Cached, 0xc4ca49f996ee9d7c),
    ("FFT", 16, Limited(4), UncachedSync, 0x6919243cf23ef2c4),
    ("FFT", 16, Limited(4), UncachedShared, 0x205fec32254086df),
    ("FFT", 16, Limited(5), Cached, 0x5c1be3a802d6d7b4),
    ("FFT", 16, Limited(5), UncachedSync, 0x2f14435b9b9648b5),
    ("FFT", 16, Limited(5), UncachedShared, 0x205fec32254086df),
    ("FFT", 16, Full, Cached, 0xc6627ece81205675),
    ("FFT", 16, Full, UncachedSync, 0x1600eb4b60fedee9),
    ("FFT", 16, Full, UncachedShared, 0x205fec32254086df),
    ("SIMPLE", 16, Limited(2), Cached, 0x283dadbb2a546c2c),
    ("SIMPLE", 16, Limited(2), UncachedSync, 0x87df9015df1d0e82),
    ("SIMPLE", 16, Limited(2), UncachedShared, 0xa26e090da22c2fa8),
    ("SIMPLE", 16, Limited(3), Cached, 0xa62190acd12ee1c0),
    ("SIMPLE", 16, Limited(3), UncachedSync, 0x1a75300092987b1c),
    ("SIMPLE", 16, Limited(3), UncachedShared, 0xa26e090da22c2fa8),
    ("SIMPLE", 16, Limited(4), Cached, 0xcbedba1e05743000),
    ("SIMPLE", 16, Limited(4), UncachedSync, 0xf1770c4691652285),
    ("SIMPLE", 16, Limited(4), UncachedShared, 0xa26e090da22c2fa8),
    ("SIMPLE", 16, Limited(5), Cached, 0xa8b8005f99163c94),
    ("SIMPLE", 16, Limited(5), UncachedSync, 0xc9fbfe407871f0dc),
    ("SIMPLE", 16, Limited(5), UncachedShared, 0xa26e090da22c2fa8),
    ("SIMPLE", 16, Full, Cached, 0x217746f8843c405e),
    ("SIMPLE", 16, Full, UncachedSync, 0xd0439dc08ec26d0c),
    ("SIMPLE", 16, Full, UncachedShared, 0xa26e090da22c2fa8),
    ("WEATHER", 16, Limited(2), Cached, 0xf44848d5d7a3c72c),
    ("WEATHER", 16, Limited(2), UncachedSync, 0x851fbf6325f0a467),
    ("WEATHER", 16, Limited(2), UncachedShared, 0x6d2d08770f315b93),
    ("WEATHER", 16, Limited(3), Cached, 0x51ea6dd54ef7adec),
    ("WEATHER", 16, Limited(3), UncachedSync, 0x6bb33e273e7a77f1),
    ("WEATHER", 16, Limited(3), UncachedShared, 0x6d2d08770f315b93),
    ("WEATHER", 16, Limited(4), Cached, 0x08a212e0ad9891ad),
    ("WEATHER", 16, Limited(4), UncachedSync, 0x79bd79187d10c912),
    ("WEATHER", 16, Limited(4), UncachedShared, 0x6d2d08770f315b93),
    ("WEATHER", 16, Limited(5), Cached, 0xad6705639e837de9),
    ("WEATHER", 16, Limited(5), UncachedSync, 0x6575071f4305a684),
    ("WEATHER", 16, Limited(5), UncachedShared, 0x6d2d08770f315b93),
    ("WEATHER", 16, Full, Cached, 0x97ecd52467f7c8ce),
    ("WEATHER", 16, Full, UncachedSync, 0x434e6007f271cbe0),
    ("WEATHER", 16, Full, UncachedShared, 0x6d2d08770f315b93),
    ("SIMPLE", 64, Limited(2), Cached, 0xa4e2f319375332dd),
    ("SIMPLE", 64, Limited(3), Cached, 0xb7754573083280ea),
    ("SIMPLE", 64, Limited(4), Cached, 0xd4c476be69e16493),
    ("SIMPLE", 64, Limited(5), Cached, 0xc05a7e16b3be993e),
    ("SIMPLE", 64, Full, Cached, 0xad9ad14c3e17e2db),
    ("SIMPLE", 64, Full, UncachedSync, 0x78af2d8d328134e7),
];

/// `(app, processors, digest)` for `SnoopyBus`.
const SNOOPY: &[(&str, usize, u64)] = &[
    ("FFT", 16, 0xf884456fea128b9c),
    ("SIMPLE", 16, 0xdf43ecfdcf6e13cf),
    ("WEATHER", 16, 0x67ac7180b2a515a8),
    ("SIMPLE", 64, 0xd656dba0a3a0f0cc),
];

/// FNV-1a over a value's `Debug` rendering, which covers every field.
fn digest(value: &impl Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn app(name: &str) -> SpmdApp {
    apps::all()
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| panic!("no app named {name}"))
}

fn directory_digest(name: &str, procs: usize, limit: PointerLimit, mode: SyncCaching) -> u64 {
    let mut sys = DirectorySystem::new(procs, CacheGeometry::paper(), limit, mode);
    Scheduler::new(app(name), procs, SEED).run(&mut sys);
    digest(sys.stats())
}

fn snoopy_digest(name: &str, procs: usize) -> u64 {
    let mut bus = SnoopyBus::new(procs, CacheGeometry::paper());
    Scheduler::new(app(name), procs, SEED).run(&mut bus);
    digest(bus.stats())
}

fn check_directory(
    rows: impl Iterator<Item = &'static (&'static str, usize, PointerLimit, SyncCaching, u64)>,
) {
    for &(name, procs, limit, mode, expected) in rows {
        let got = directory_digest(name, procs, limit, mode);
        assert_eq!(
            got, expected,
            "{name} at {procs} processors, {limit:?}, {mode:?}: digest {got:#018x}"
        );
    }
}

fn check_snoopy(rows: impl Iterator<Item = &'static (&'static str, usize, u64)>) {
    for &(name, procs, expected) in rows {
        let got = snoopy_digest(name, procs);
        assert_eq!(
            got, expected,
            "bus, {name} at {procs} processors: digest {got:#018x}"
        );
    }
}

/// SIMPLE at 16 processors, two pointer limits, cached and uncached sync.
#[cfg(debug_assertions)]
#[test]
fn directory_subset_matches_golden() {
    check_directory(DIRECTORY.iter().filter(|&&(name, procs, limit, mode, _)| {
        name == "SIMPLE"
            && procs == 16
            && matches!(limit, Limited(2) | Full)
            && mode != UncachedShared
    }));
}

#[cfg(debug_assertions)]
#[test]
fn snoopy_subset_matches_golden() {
    check_snoopy(
        SNOOPY
            .iter()
            .filter(|&&(name, procs, _)| name == "SIMPLE" && procs == 16),
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn directory_matrix_matches_golden() {
    check_directory(DIRECTORY.iter());
}

#[cfg(not(debug_assertions))]
#[test]
fn snoopy_matches_golden() {
    check_snoopy(SNOOPY.iter());
}
