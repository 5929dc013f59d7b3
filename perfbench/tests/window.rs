//! The load phase reads counter deltas across the timed window, not
//! lifetime totals, and its byte-identity gate catches a wrong
//! response.
//!
//! This binary holds the only tests that start a server: the solver
//! counters it reads are process-global.

use perfbench::load::{self, Session};
use perfbench::schedule::{Schedule, Workload};

#[test]
fn hot_repeat_window_shows_hits_and_no_solves() {
    let schedule = Schedule::new(Workload::HotRepeat, 3);
    let mut session = Session::start(&schedule).expect("server starts and warms up");
    let before = session.stats().expect("stats before");
    let window = load::run_window(&mut session, &schedule, 0.3);
    let delta = session.stats().expect("stats after").since(&before);
    session.shutdown();

    assert!(window.sent > 0);
    assert_eq!(window.missing, 0, "{:?}", window.failures);
    assert!(
        window.conns.iter().all(|c| c.not_ok.is_empty()),
        "{:?}",
        window.failures
    );
    // Warm-up solved every body; the window must not solve any.
    assert_eq!(
        delta.counter("spice.newton.solves.dc") + delta.counter("spice.newton.solves.tran"),
        0
    );
    assert_eq!(delta.counter("serve.cache.hit"), window.sent);
    assert_eq!(delta.counter("serve.cache.miss"), 0);
    assert_eq!(delta.counter("serve.accepted"), window.sent);

    let mut windows = vec![window];
    assert_eq!(load::verify(&schedule, &windows), Vec::<String>::new());
    windows[0].conns[0].digest_sum ^= 1;
    assert_eq!(load::verify(&schedule, &windows).len(), 1);
}
