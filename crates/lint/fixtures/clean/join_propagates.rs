//@ path: crates/serve/src/demo.rs
//@ expect:

//! Joins that re-raise a worker's panic, and `join`s that are not thread
//! joins, stay quiet; so do swallowed joins inside tests.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

pub fn total(handles: Vec<JoinHandle<u64>>) -> u64 {
    handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
        .sum()
}

pub fn csv(fields: &[&str]) -> String {
    let _ = fields.join(",").len();
    fields.join(",")
}

pub fn nested(dir: &Path) -> PathBuf {
    let outlet_ = dir.join("out");
    outlet_
}

// A comment may say `let _ = h.join();` or `.join().ok()` freely.
pub fn doc() -> &'static str {
    "h.join().ok()"
}

#[cfg(test)]
mod tests {
    use std::thread;

    #[test]
    fn a_test_may_ignore_its_worker() {
        let h = thread::spawn(|| 1u64);
        let _ = h.join();
        let g = thread::spawn(|| 2u64);
        assert_eq!(g.join().ok(), Some(2));
    }
}
