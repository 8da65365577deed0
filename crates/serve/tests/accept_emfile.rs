//! Accept errors must not spin the I/O loop.
//!
//! The listener sits on a level-triggered poller: a connection that
//! `accept` cannot take (here `EMFILE`, out of file descriptors) leaves the
//! listener readable, so a loop that simply retried would burn a core
//! until a descriptor frees up. The loop must stand the listener down
//! until its next idle sweep instead, and pick the connection up once
//! descriptors are available again.
//!
//! The descriptor limit is process-wide, so this file holds exactly one
//! test in its own integration-test binary.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::net::TcpStream;
use std::os::raw::c_int;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hecmix_serve::http;
use hecmix_serve::{start, AppState, ModelStore, ServeConfig};

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

fn nofile() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable `struct rlimit`.
    assert_eq!(
        unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) },
        0,
        "getrlimit"
    );
    lim
}

fn set_nofile_cur(cur: u64) {
    let lim = RLimit {
        cur,
        max: nofile().max,
    };
    // SAFETY: `lim` is a valid `struct rlimit`; lowering or restoring the
    // soft limit below the hard limit is always permitted.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0, "setrlimit");
}

/// The highest open descriptor of this process (the directory handle
/// the listing itself holds included).
fn max_open_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u64>().ok())
        .max()
        .unwrap_or(2)
}

/// User + system CPU time of this process, in clock ticks, re-read from
/// an already open `/proc/self/stat` (no descriptor is free to open it
/// while the table is full).
fn cpu_ticks(stat_file: &mut File) -> u64 {
    let mut stat = String::new();
    stat_file.seek(SeekFrom::Start(0)).expect("rewind stat");
    stat_file.read_to_string(&mut stat).expect("read stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("comm") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[test]
fn emfile_on_accept_stands_the_listener_down_then_recovers() {
    let state = Arc::new(AppState::new(ModelStore::new(), 1, 16));
    let config = ServeConfig {
        io_threads: 1,
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = start(config, state).expect("daemon starts");
    let saved = nofile().cur;
    let mut stat = File::open("/proc/self/stat").expect("open /proc/self/stat");

    // Fill the descriptor table up to a lowered limit, then free exactly
    // one: the client's socket takes it, so the server's `accept` of that
    // connection fails with EMFILE. The kernel still completes the
    // handshake into the listen backlog.
    set_nofile_cur(max_open_fd() + 16);
    let mut filler = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        filler.push(f);
    }
    filler.pop();
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // Let the loop see the pending connection and fail to take it, then
    // measure: a loop retrying a level-triggered listener would spend most
    // of this window on the CPU.
    std::thread::sleep(Duration::from_millis(100));
    let (t0, ticks0) = (Instant::now(), cpu_ticks(&mut stat));
    std::thread::sleep(Duration::from_millis(400));
    let busy_ticks = cpu_ticks(&mut stat) - ticks0;
    let window = t0.elapsed();
    drop(filler);
    set_nofile_cur(saved);
    assert!(
        busy_ticks < 10,
        "the I/O loop spun on EMFILE: {busy_ticks} ticks of CPU in {window:?}"
    );

    // Descriptors are back: the next idle sweep re-arms the listener and
    // the queued connection is served.
    let (status, _headers, _body) =
        http::exchange(&mut conn, "GET", "/healthz", "").expect("served after recovery");
    assert_eq!(status, 200);

    handle.shutdown();
    handle.join();
}
