//! Reads racing compaction: `compact()` repoints live keys into a fresh segment and deletes the
//! old ones, so a `get` that looked up its pointer just before the repoint finds its segment
//! gone. Every such read must still return the key's value.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pasoa_kvdb::{Db, DbOptions};

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:03}").into_bytes()
}

#[test]
fn gets_racing_compaction_never_fail() {
    let dir = std::env::temp_dir().join(format!("kvdb-compaction-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // No cache: every get reads the log, so every get can race a repoint.
    let options = DbOptions {
        cache_budget_bytes: 0,
        auto_compact_garbage_ratio: 0.0,
        ..Default::default()
    };
    let db = Db::open_with(&dir, options).unwrap();
    for i in 0..200 {
        db.put(&key(i), format!("value-{i}").as_bytes()).unwrap();
    }

    let stop = AtomicBool::new(false);
    let start = Barrier::new(2);
    let (compactions, failures) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            start.wait();
            let mut compactions = 0u32;
            let deadline = Instant::now() + Duration::from_secs(3);
            while Instant::now() < deadline {
                for i in 0..50 {
                    db.put(&key(i), format!("value-{i}").as_bytes()).unwrap();
                }
                db.compact().unwrap();
                compactions += 1;
            }
            stop.store(true, Ordering::Release);
            compactions
        });
        start.wait();
        let mut failures = Vec::new();
        while !stop.load(Ordering::Acquire) {
            for i in 0..200 {
                match db.get(&key(i)) {
                    Ok(Some(value)) => assert_eq!(value, format!("value-{i}").as_bytes()),
                    Ok(None) => failures.push(format!("key {i} vanished")),
                    Err(error) => failures.push(format!("key {i}: {error}")),
                }
            }
        }
        (writer.join().unwrap(), failures)
    });
    assert!(compactions > 0);
    assert!(
        failures.is_empty(),
        "{} of the gets failed across {compactions} compactions, first: {}",
        failures.len(),
        failures[0]
    );
    db.destroy().unwrap();
}
