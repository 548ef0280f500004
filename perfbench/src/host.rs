//! What a number needs next to it to compare across hosts: the
//! same-run memory roofs (`memcpy` and `xor_into` GiB/s over the
//! workload's working-set size) and the host's facts.

use crate::stats;
use std::path::Path;
use std::time::Instant;
use xorbas_gf::{slice_ops, Field, Gf256, Gf65536};

/// A byte kernel timed against the roofs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `dst.copy_from_slice(src)`: the copy roof.
    Memcpy,
    /// `slice_ops::xor_into`: the XOR roof.
    XorInto,
    /// `slice_ops::mul_acc` over GF(2^8).
    MulAcc,
    /// `slice_ops::payload_mul_acc` over GF(2^16).
    Mul16Acc,
}

/// GiB/s of `kernel` over `bytes`-long source and destination buffers,
/// from the quiet end of the wall time of at least `min_passes` passes
/// and `min_secs`.
pub fn kernel_gibps(kernel: Kernel, bytes: usize, min_passes: usize, min_secs: f64) -> f64 {
    let mut src = vec![0u8; bytes];
    crate::rng::fill_bytes(0x600F, 0, &mut src);
    let mut dst = vec![0u8; bytes];
    crate::rng::fill_bytes(0x600E, 0, &mut dst);
    let c8 = Gf256::from_index(0x8E);
    let c16 = Gf65536::from_index(0x1D2B);
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_passes || start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        match kernel {
            Kernel::Memcpy => dst.copy_from_slice(&src),
            Kernel::XorInto => slice_ops::xor_into(&mut dst, &src),
            Kernel::MulAcc => slice_ops::mul_acc(&mut dst, &src, c8),
            Kernel::Mul16Acc => slice_ops::payload_mul_acc(&mut dst, &src, c16),
        }
        times.push(t.elapsed().as_secs_f64());
        std::hint::black_box(&dst);
    }
    gib(bytes) / stats::quiet(&times)
}

/// CPU seconds the calling thread has run, from the kernel's scheduler
/// statistics (nanoseconds). The kernel brings a running thread's total
/// up to date only at scheduler ticks and switches, so the thread yields
/// first to be read to the nanosecond. Unlike wall time this does not
/// grow while the hypervisor runs another guest on our CPU (steal),
/// which on a shared host is much of the run-to-run spread. Falls back
/// to wall time where the statistics are missing or off.
pub fn thread_cpu_secs() -> f64 {
    std::thread::yield_now();
    schedstat_secs(Path::new("/proc/thread-self/schedstat")).unwrap_or_else(wall_secs)
}

/// The run time, in seconds, of a `schedstat` file; `None` if missing
/// or zero.
fn schedstat_secs(path: &Path) -> Option<f64> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .filter(|&ns| ns > 0)
        .map(|ns| ns as f64 * 1e-9)
}

/// CPU seconds the live chunk servers' accept loops have run. Each loop
/// polls its listener every millisecond, idle or not, so this grows
/// with wall time rather than with work; phases timed in process CPU
/// subtract it.
pub fn accept_loops_cpu_secs() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|c| c.starts_with("xorbas-accept"))
        })
        .filter_map(|t| schedstat_secs(&t.path().join("schedstat")))
        .sum()
}

/// CPU seconds the process has run for its work: [`process_cpu_secs`]
/// less [`accept_loops_cpu_secs`]. Only phases in which no server is
/// killed are timed with it; a killed server's loop leaves the sum.
pub fn work_cpu_secs() -> f64 {
    process_cpu_secs() - accept_loops_cpu_secs()
}

/// CPU seconds every thread of this process has run, exited threads
/// included (`utime + stime` of `/proc/self/stat`, in 10 ms ticks, so
/// only phases well above that are timed with it). Falls back to wall
/// time where the file is missing.
pub fn process_cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name: state is
            // field 3, utime and stime are fields 14 and 15.
            let mut f = s.rsplit_once(')')?.1.split_whitespace().skip(11);
            let utime: u64 = f.next()?.parse().ok()?;
            let stime: u64 = f.next()?.parse().ok()?;
            // USER_HZ is 100 on every Linux architecture this runs on.
            Some((utime + stime) as f64 / 100.0)
        })
        .unwrap_or_else(wall_secs)
}

fn wall_secs() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Seconds the hypervisor ran other guests on this machine's CPUs
/// (summed over CPUs, from the kernel's `steal` counter), when known.
pub fn steal_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: f64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    // USER_HZ is 100 on every Linux architecture this runs on.
    Some(ticks / 100.0)
}

/// Bytes in GiB.
pub fn gib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// The paired copy reference: a `memcpy` stream timed right beside each
/// measured call, so the call can be given as a ratio to it.
///
/// Other guests on a shared host slow memory-bound work in stretches of
/// seconds, by up to half, without stealing CPU; a call and the copy
/// timed just before it fall in the same stretch and slow alike. Over
/// 24 stretches of ten seconds on a 2-vCPU KVM guest, the spread
/// (IQR/median) of the per-stretch median fell from 0.09–0.14 in thread
/// CPU to 0.01–0.06 as a ratio to this copy. The copy is the standard
/// library's, so no change to the repository moves it.
pub struct CopyRef {
    src: Vec<u8>,
    dst: Vec<u8>,
    /// Next chunk of `src` to copy from.
    next: usize,
}

impl CopyRef {
    /// Chunk size of the copy.
    const CHUNK: usize = 1 << 20;

    /// A reference streaming from `bytes` of source, rounded up to whole
    /// chunks; make it as large as the working set it stands beside.
    pub fn new(bytes: usize) -> Self {
        let chunks = bytes.div_ceil(Self::CHUNK).max(1);
        let mut src = vec![0u8; chunks * Self::CHUNK];
        crate::rng::fill_bytes(0xC0B1, 0, &mut src);
        Self {
            src,
            dst: vec![0u8; Self::CHUNK],
            next: 0,
        }
    }

    /// The same reference in freshly allocated memory.
    pub fn relocate(self) -> Self {
        Self {
            src: self.src.clone(),
            dst: self.dst.clone(),
            next: self.next,
        }
    }

    /// Thread CPU seconds to copy `bytes` (in whole chunks, at least
    /// one), continuing through the source where the last call stopped.
    pub fn secs(&mut self, bytes: usize) -> f64 {
        let chunks = bytes.div_ceil(Self::CHUNK).max(1);
        let n = self.src.len() / Self::CHUNK;
        let t = thread_cpu_secs();
        for _ in 0..chunks {
            let at = self.next * Self::CHUNK;
            self.dst.copy_from_slice(&self.src[at..at + Self::CHUNK]);
            std::hint::black_box(&self.dst);
            self.next = (self.next + 1) % n;
        }
        (thread_cpu_secs() - t) * bytes as f64 / (chunks * Self::CHUNK) as f64
    }
}

/// The two roofs measured once.
#[derive(Debug, Clone, Copy)]
pub struct Roofs {
    /// `memcpy` GiB/s.
    pub memcpy: f64,
    /// `xor_into` GiB/s.
    pub xor_into: f64,
}

impl Roofs {
    /// Measures both roofs over a `bytes` working set.
    pub fn measure(bytes: usize) -> Self {
        Self {
            memcpy: kernel_gibps(Kernel::Memcpy, bytes, 10, 0.1),
            xor_into: kernel_gibps(Kernel::XorInto, bytes, 10, 0.1),
        }
    }
}

/// Facts about the host and the build.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Git revision of the checkout, when it is a git work tree.
    pub git_rev: String,
    /// Available parallelism.
    pub nproc: usize,
    /// The GF kernel backend the dispatcher chose.
    pub backend: &'static str,
    /// Filesystem type holding the cluster's data root.
    pub data_fs: String,
}

impl HostInfo {
    /// Gathers the facts; `data_root` must exist.
    pub fn gather(data_root: &Path) -> Self {
        Self {
            git_rev: git_rev(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: xorbas_gf::KernelBackend::active().name(),
            data_fs: fs_type(data_root).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Resolves `HEAD` of the git work tree at `root` without running git.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in the kernel's mount table).
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
}
