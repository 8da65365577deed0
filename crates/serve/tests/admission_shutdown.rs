//! Admission control and graceful shutdown, over real sockets.
//!
//! The first test exercises the **connection cap**: past
//! `max_connections`, the I/O loop that owns the listener answers `503`
//! with `Retry-After` and closes instead of serving the socket — admitted
//! connections never feel the overload. The second exercises the **drain
//! protocol** in its hardest configuration: shutdown arrives while a
//! coalesced compute (one leader, one single-flight follower) is still
//! running on the pool. Both waiters must get real answers tagged
//! `Connection: close`, every thread must exit within a bounded join, and
//! the listener must be gone. Further tests pin that a fresh connection
//! is accepted without a polling delay and that drain refuses new
//! connects before the loops exit.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hecmix_experiments::Lab;
use hecmix_obs::json::{self, Value};
use hecmix_serve::http;
use hecmix_serve::{start, AppState, ModelStore, ServeConfig, ServerHandle};

fn build_store() -> ModelStore {
    static MODELS: OnceLock<Vec<hecmix_core::profile::WorkloadModel>> = OnceLock::new();
    let models = MODELS.get_or_init(|| {
        let lab = Lab::new();
        let ep = hecmix_workloads::workload_by_name("ep").expect("ep registered");
        lab.models(ep.as_ref()).to_vec()
    });
    let mut store = ModelStore::new();
    store.insert("ep", models.clone());
    store
}

fn small_daemon(store: ModelStore, max_connections: usize) -> (ServerHandle, Arc<AppState>) {
    let state = Arc::new(AppState::new(store, 1, 16));
    let config = ServeConfig {
        io_threads: 1,
        workers: 1,
        max_connections,
        queue_capacity: 8,
        read_timeout: Duration::from_secs(2),
        queue_deadline: Duration::from_secs(30),
        retry_after_s: 7,
        ..ServeConfig::default()
    };
    let handle = start(config, Arc::clone(&state)).expect("daemon starts");
    (handle, state)
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    conn
}

/// Send `GET /healthz` on `conn` and return `(status, retry_after,
/// connection_header)`.
fn healthz(conn: &mut TcpStream) -> (u16, Option<String>, Option<String>) {
    let (status, headers, _body) = http::exchange(conn, "GET", "/healthz", "").expect("exchange");
    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    };
    (status, find("retry-after"), find("connection"))
}

fn wait_until(what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn connection_cap_gets_503_with_retry_after() {
    let (handle, state) = small_daemon(ModelStore::new(), 2);

    // Two connections fill the cap; both are registered with the event
    // loop and fully functional.
    let mut c0 = connect(&handle);
    let mut c1 = connect(&handle);
    assert_eq!(healthz(&mut c0).0, 200);
    assert_eq!(healthz(&mut c1).0, 200);
    wait_until("both connections registered", || handle.connections() == 2);

    // The third connection is rejected at accept — it is never parsed
    // and never reaches the compute pool.
    let mut c2 = connect(&handle);
    let (status, retry_after, connection) = healthz(&mut c2);
    assert_eq!(status, 503, "admission control must reject");
    assert_eq!(retry_after.as_deref(), Some("7"), "Retry-After advertised");
    assert_eq!(connection.as_deref(), Some("close"));
    let rejected = state
        .metrics
        .rejected
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(rejected >= 1, "rejection counted in metrics");

    // The admitted connections still work: overload never broke them.
    assert_eq!(healthz(&mut c0).0, 200);
    assert_eq!(healthz(&mut c1).0, 200);

    // Dropping an admitted connection frees a slot for a new one.
    drop(c0);
    wait_until("slot freed", || handle.connections() < 2);
    let mut c3 = connect(&handle);
    assert_eq!(healthz(&mut c3).0, 200, "freed slot must be reusable");

    handle.shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_drains_coalesced_in_flight_compute() {
    let (handle, state) = small_daemon(build_store(), 64);
    // Hold the single compute worker long enough that shutdown lands
    // mid-sweep with a follower parked on the leader's flight.
    state.set_compute_delay(Duration::from_millis(400));

    let body = r#"{"workload":"ep","arm":4,"amd":3}"#;
    let wire = http::format_request("POST", "/frontier", body);

    // Leader: first miss enqueues the compute.
    let mut c_leader = connect(&handle);
    c_leader.write_all(wire.as_bytes()).expect("leader send");
    // Follower: identical query while the sweep runs — joins the flight
    // instead of enqueueing a second job.
    let mut c_follower = connect(&handle);
    c_follower
        .write_all(wire.as_bytes())
        .expect("follower send");
    wait_until("follower to coalesce onto the leader's flight", || {
        state
            .metrics
            .coalesced
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    });

    // SIGINT equivalent: drain starts while the coalesced compute is
    // still sleeping on the pool.
    handle.shutdown();

    // Both waiters get the real answer, tagged for close.
    let mut answers = Vec::new();
    for (name, conn) in [("leader", &mut c_leader), ("follower", &mut c_follower)] {
        let (status, headers, resp) =
            http::read_response(conn).unwrap_or_else(|e| panic!("{name} must be answered: {e:?}"));
        assert_eq!(status, 200, "{name} gets the computed frontier");
        let connection = headers
            .iter()
            .find(|(k, _)| k == "connection")
            .map(|(_, v)| v.as_str().to_owned());
        assert_eq!(
            connection.as_deref(),
            Some("close"),
            "{name} told to close during drain"
        );
        let v = json::parse(std::str::from_utf8(&resp).expect("UTF-8")).expect("JSON");
        answers.push(v);
    }
    let coalesced_flags: Vec<bool> = answers
        .iter()
        .map(|v| v.get("coalesced").and_then(Value::as_bool).expect("flag"))
        .collect();
    assert!(
        coalesced_flags.contains(&true),
        "one waiter rode the leader's compute: {coalesced_flags:?}"
    );
    assert_eq!(
        state
            .metrics
            .computes
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "exactly one sweep for both waiters"
    );

    // Every thread exits; join is bounded by the read timeout.
    let t0 = Instant::now();
    let addr = handle.addr();
    handle.join();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "join must not hang after drain"
    );

    // The listener is gone: new connections are refused.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );
}

#[test]
fn slowloris_partial_head_is_reaped_with_408() {
    // A peer trickling a request head one fragment at a time keeps
    // `last_active` fresh forever, so the idle sweep alone never fires.
    // The head deadline is the guard: a connection holding a *partial*
    // request past it is answered 408 and closed, and the reap is
    // counted in /statz.
    let state = Arc::new(AppState::new(build_store(), 1, 16));
    let config = ServeConfig {
        io_threads: 1,
        workers: 1,
        max_connections: 16,
        queue_capacity: 8,
        read_timeout: Duration::from_secs(30),
        head_deadline: Duration::from_millis(300),
        queue_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = start(config, Arc::clone(&state)).expect("daemon starts");

    // An honest keep-alive connection, for contrast: it must survive the
    // slowloris reaping untouched (its buffers are empty between
    // requests, so the head deadline never applies).
    let mut honest = connect(&handle);
    assert_eq!(healthz(&mut honest).0, 200);

    // The attacker sends half a request line, then drip-feeds one byte
    // every 100 ms from a second thread — each byte refreshes
    // `last_active`, so only the head deadline can catch it.
    let mut slow = connect(&handle);
    slow.write_all(b"POST /frontier HT").expect("partial head");
    let mut trickle = slow.try_clone().expect("clone socket");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_trickle = Arc::clone(&stop);
    let trickler = std::thread::spawn(move || {
        while !stop_trickle.load(std::sync::atomic::Ordering::Relaxed) {
            if trickle.write_all(b"T").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    let t0 = Instant::now();
    let (status, headers, _body) =
        http::read_response(&mut slow).expect("slowloris connection must get a response");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    trickler.join().expect("trickler thread");
    assert_eq!(status, 408, "partial head reaped with 408");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "reap happens on the head deadline, not the 30 s idle timeout"
    );
    assert_eq!(
        headers
            .iter()
            .find(|(k, _)| k == "connection")
            .map(|(_, v)| v.as_str()),
        Some("close"),
        "a reaped connection is told to close"
    );
    wait_until("timeout counted", || {
        state
            .metrics
            .timeouts
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    });

    // The honest connection was untouched by the reaping.
    assert_eq!(healthz(&mut honest).0, 200);

    // And the counter is visible in /statz.
    let mut c = connect(&handle);
    let (status, _headers, resp) = http::exchange(&mut c, "GET", "/statz", "").expect("statz");
    assert_eq!(status, 200);
    let v = json::parse(std::str::from_utf8(&resp).expect("UTF-8")).expect("JSON");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("hecmix-statz-v4")
    );
    assert!(
        v.get("timeouts_408").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "statz must count the 408 reap"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn fresh_connections_are_accepted_without_a_polling_delay() {
    // Each round trip pays a connect, an accept, and one request. The
    // listener sits on the I/O loop's poller, so the accept happens on
    // readiness rather than at the next tick of a polling interval; the
    // gateway pays this on every forward.
    let (handle, _state) = small_daemon(ModelStore::new(), 64);
    let mut rtts: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let mut conn = connect(&handle);
            assert_eq!(healthz(&mut conn).0, 200);
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median fresh-connection round trip {median:?}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn drain_refuses_new_connects_before_the_loops_exit() {
    let (handle, state) = small_daemon(build_store(), 64);
    // A parked compute keeps the I/O loop alive well past the refusal. A
    // coalesced follower proves the leader's job is already queued, so
    // drain answers both rather than shedding them.
    state.set_compute_delay(Duration::from_millis(1500));
    let wire = http::format_request("POST", "/frontier", r#"{"workload":"ep","arm":3,"amd":2}"#);
    let mut parked = [connect(&handle), connect(&handle)];
    for conn in &mut parked {
        conn.write_all(wire.as_bytes()).expect("send");
    }
    wait_until("follower to coalesce", || {
        state
            .metrics
            .coalesced
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    });

    let addr = handle.addr();
    let t0 = Instant::now();
    handle.shutdown();
    wait_until("listener dropped", || TcpStream::connect(addr).is_err());
    assert!(
        t0.elapsed() < Duration::from_millis(1000),
        "refused while the parked compute still runs, not at loop exit"
    );

    for conn in &mut parked {
        let (status, _headers, _body) = http::read_response(conn).expect("parked answered");
        assert_eq!(status, 200, "drain still answers the parked waiters");
    }
    handle.join();
}
