//@ path: crates/serve/src/demo.rs
//@ expect: swallowed_join

//! Joining a worker and dropping its panic: the caller gets a default or
//! missing result instead of the bug.

use std::thread::JoinHandle;

pub fn total(handles: Vec<JoinHandle<u64>>) -> u64 {
    handles.into_iter().map(|h| h.join().unwrap_or_default()).sum()
}

pub fn first(h: JoinHandle<u64>) -> Option<u64> {
    h.join().ok()
}

pub fn reap(h: JoinHandle<()>) {
    let _ = h.join();
}

pub fn reap_all(handles: Vec<JoinHandle<u64>>) -> Vec<u64> {
    handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_default()
        })
        .collect()
}
