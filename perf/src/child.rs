//! Child processes of the system under test, reaped with `wait4(2)` so
//! each one's peak resident set size comes back with its exit status.
//!
//! A child's `ru_maxrss` also counts the address space it was spawned
//! from: at `exec`, Linux folds the old address space's high-water mark
//! into the process's peak. Spawned from the benchmark, whose resident set
//! is larger than some children's, that would measure the benchmark. So
//! memory is measured through [`measured`], which spawns the child from a
//! fresh, small copy of this binary ([`rss_main`]).
//!
//! The repository takes no `libc` dependency, so the binding is declared
//! by hand like `gcatch::signals` does; `std` links the C library that
//! provides it. The `rusage` layout below is the LP64 Linux one.

use std::io::{self, Read};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, Command, ExitCode, ExitStatus, Stdio};

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    pub status: ExitStatus,
    /// Peak resident set size in KiB (`ru_maxrss`).
    pub maxrss_kib: u64,
}

impl Exit {
    /// `gcatch` exits 0 when clean and 1 when it found bugs; anything else
    /// (2 for usage errors, a signal) is a failed operation.
    pub fn ok(&self) -> bool {
        matches!(self.status.code(), Some(0 | 1))
    }
}

/// Waits for `child` and returns its status and peak RSS. Consumes the
/// handle: the process is reaped here, so `Child::wait` must not run.
pub fn reap(child: Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and `usage` has
        // the size and field order of LP64 Linux `struct rusage`; `pid` is
        // our own unreaped child, so wait4 writes only through them.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(Exit {
        status: ExitStatus::from_raw(status),
        maxrss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// What a finished command printed and how it ended.
pub struct Output {
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    pub exit: Exit,
}

/// The flag that runs this binary as [`rss_main`].
pub const RSS_FLAG: &str = "--rss-to";

/// `perf --rss-to FILE BIN ARGS...`: runs `BIN ARGS...` with the inherited
/// standard streams, writes its peak RSS in KiB to `FILE`, and exits as it
/// did.
pub fn rss_main(args: &[String]) -> ExitCode {
    let [out, bin, rest @ ..] = args else {
        eprintln!("perf: usage: perf {RSS_FLAG} FILE BIN ARGS...");
        return ExitCode::from(2);
    };
    let exit = match Command::new(bin).args(rest).spawn().and_then(reap) {
        Ok(exit) => exit,
        Err(e) => {
            eprintln!("perf: cannot run {bin}: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::write(out, exit.maxrss_kib.to_string()) {
        eprintln!("perf: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    let code = exit
        .status
        .code()
        .unwrap_or_else(|| 128 + exit.status.signal().unwrap_or(0));
    ExitCode::from(u8::try_from(code).unwrap_or(u8::MAX))
}

/// Runs `bin args` to completion through [`rss_main`], with its output
/// captured; `out` is a scratch file for the measurement. The returned
/// exit carries the child's own peak RSS.
pub fn measured(bin: &Path, args: &[&str], out: &Path) -> io::Result<Output> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg(RSS_FLAG).arg(out).arg(bin).args(args);
    let mut output = run(&mut cmd)?;
    let kib = std::fs::read_to_string(out)?;
    output.exit.maxrss_kib = kib
        .trim()
        .parse()
        .map_err(|e| io::Error::other(format!("bad RSS record `{kib}`: {e}")))?;
    Ok(output)
}

/// The peak RSS in KiB (`VmHWM`) of a running process.
pub fn hwm_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// Runs `cmd` to completion with its output captured.
pub fn run(cmd: &mut Command) -> io::Result<Output> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut err = child.stderr.take().expect("stderr is piped");
    let (stdout, stderr) = std::thread::scope(|s| {
        let errs = s.spawn(move || {
            let mut buf = Vec::new();
            err.read_to_end(&mut buf).map(|_| buf)
        });
        let mut buf = Vec::new();
        let outs = out.read_to_end(&mut buf).map(|_| buf);
        (outs, errs.join().expect("stderr reader does not panic"))
    });
    let exit = reap(child)?;
    Ok(Output {
        stdout: stdout?,
        stderr: stderr?,
        exit,
    })
}
