//! `cpu_time` counts the process's CPU time. A test binary of its own, so
//! no other test's threads run while it measures.

use std::time::{Duration, Instant};

#[test]
fn cpu_time_counts_work_not_sleep() {
    let t = rpq_perfbench::cpu_time();
    std::thread::sleep(Duration::from_millis(200));
    let slept = rpq_perfbench::cpu_time() - t;
    let start = Instant::now();
    let mut x = 0u64;
    while start.elapsed() < Duration::from_millis(200) {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    let worked = rpq_perfbench::cpu_time() - t - slept;
    assert!(slept < Duration::from_millis(50), "sleeping used {slept:?}");
    assert!(
        worked > Duration::from_millis(50),
        "working used {worked:?}"
    );
}
