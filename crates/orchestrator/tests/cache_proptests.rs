//! `Cache::load` never panics on a damaged entry. A real cache entry is
//! truncated, has a byte overwritten or gets a deep-nesting splice;
//! every load must return `None` or the exact stored report.
//!
//! Entries carry no digest of the report, so damage inside the report
//! that leaves it well-formed (one digit changed, or `[`s spliced into
//! a map key) is served as a hit. For those the tests check that the
//! hit is exactly the report the damaged file holds.

use std::path::PathBuf;
use std::sync::OnceLock;

use ccfit::{ConfigId, Mechanism};
use ccfit_metrics::SimReport;
use ccfit_orchestrator::{Cache, CacheEntry, RunSpec};
use proptest::prelude::*;

/// The entry every case damages: its spec, key, stored report and file
/// bytes, plus the offset at which the report value starts.
struct Fixture {
    spec: RunSpec,
    key: String,
    report: SimReport,
    bytes: Vec<u8>,
    report_at: usize,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = RunSpec::new(
            ConfigId::Config1Case1 { scale: 0.01 },
            Mechanism::ccfit(),
            1,
            10_000.0,
        );
        let key = spec.cache_key();
        let report = spec.execute(&Default::default());
        let dir = scratch_dir("fixture");
        let cache = Cache::new(&dir);
        cache.store(&key, &spec, &report);
        let bytes = std::fs::read(dir.join(format!("{key}.json"))).expect("stored entry");
        std::fs::remove_dir_all(&dir).ok();
        let text = std::str::from_utf8(&bytes).expect("entries are UTF-8");
        let report_at = text.find(",\"report\":").expect("report field") + 1;
        Fixture {
            spec,
            key,
            report,
            bytes,
            report_at,
        }
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ccfit-cache-prop-{tag}-{}", std::process::id()))
}

/// Store `bytes` as the fixture's entry under `dir`, load it back and
/// check the outcome of damage that starts at byte `at`.
fn check_damaged(dir: &PathBuf, bytes: &[u8], at: usize) -> Result<(), TestCaseError> {
    let f = fixture();
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(format!("{}.json", f.key)), bytes).unwrap();
    let loaded = Cache::new(dir).load(&f.key, &f.spec);
    std::fs::remove_dir_all(dir).ok();
    match loaded {
        None => {}
        Some(r) if r == f.report => {}
        Some(r) => {
            prop_assert!(
                at >= f.report_at,
                "damage at {} outside the report was served",
                at
            );
            let entry: CacheEntry =
                serde_json::from_str(std::str::from_utf8(bytes).unwrap()).unwrap();
            prop_assert!(entry.report == r, "hit differs from the damaged file");
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn truncated_entries_are_misses(cut in any::<u64>()) {
        let f = fixture();
        let end = (cut % f.bytes.len() as u64) as usize;
        let dir = scratch_dir("truncate");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{}.json", f.key)), &f.bytes[..end]).unwrap();
        prop_assert!(Cache::new(&dir).load(&f.key, &f.spec).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwritten_bytes_are_misses_or_what_the_file_says(
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let f = fixture();
        let at = (at % f.bytes.len() as u64) as usize;
        prop_assume!(f.bytes[at] != byte);
        let mut bytes = f.bytes.clone();
        bytes[at] = byte;
        check_damaged(&scratch_dir("overwrite"), &bytes, at)?;
    }

    #[test]
    fn deep_nesting_splices_are_misses_or_what_the_file_says(
        at in any::<u64>(),
        levels in 100usize..60_000,
        object in any::<bool>(),
    ) {
        let f = fixture();
        let at = (at % (f.bytes.len() as u64 + 1)) as usize;
        let opener: &[u8] = if object { b"{\"k\":" } else { b"[" };
        let mut bytes = f.bytes[..at].to_vec();
        bytes.extend(opener.repeat(levels));
        bytes.extend_from_slice(&f.bytes[at..]);
        check_damaged(&scratch_dir("nesting"), &bytes, at)?;
    }
}
