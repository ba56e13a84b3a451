//! Readings taken from outside the measured program: process and thread
//! CPU time from the kernel's CPU clocks, peak resident memory from
//! `/proc`, the git revision from `.git`, and the order statistics the
//! benchmark reports.

use radqec_telemetry::HistogramSnapshot;
use std::path::Path;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("radbench reads the CPU clocks and /proc of 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    /// POSIX `clock_gettime`, from the C library std already links.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Process CPU seconds (user + system, all threads) so far.
///
/// CPU clocks, unlike wall clocks, do not run while a thread waits for a
/// core: neither while another process holds it nor while the hypervisor
/// lends the virtual CPU elsewhere (steal time, which Linux subtracts with
/// paravirtual time accounting). On a shared machine they give readings
/// that repeat from run to run where wall-clock readings swing with the
/// neighbours' load.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Words in the reference kernel's table: 256 KiB, resident in L2 like the
/// program's hot tableaux, skip tables and decoder caches.
const REFERENCE_WORDS: usize = 1 << 15;
/// Steps of the reference kernel: about 5 ms of CPU on a 2020s x86 core.
const REFERENCE_STEPS: u64 = 1 << 18;

/// CPU seconds the calling thread takes for a fixed kernel of integer
/// mixing, data-dependent branches and random reads and writes in an
/// L2-sized table. The kernel is the benchmark's own code, which no change
/// to the program touches, so its time tracks only the machine: a shared
/// virtual CPU whose host core runs at another clock or shares its caches
/// and pipeline with a neighbour does the same work in a different CPU
/// time.
pub fn reference_cpu_s() -> f64 {
    let mut table = vec![0u64; REFERENCE_WORDS];
    let start = thread_cpu_s();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for step in 0..REFERENCE_STEPS {
        x = derive_seed(x, step);
        let i = x as usize & (REFERENCE_WORDS - 1);
        table[i] = table[i].wrapping_add(x).rotate_left(7);
        if table[i] & 1 == 0 {
            x ^= table[(i ^ (x >> 40) as usize) & (REFERENCE_WORDS - 1)];
        }
    }
    std::hint::black_box(&table);
    thread_cpu_s() - start
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in `dir`, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_rev(dir: &Path) -> String {
    let git = dir.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference).and_then(|rev| rev.strip_suffix(' ')).map(str::to_owned)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of a parameter description.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 of `seed` and `index`: the seed of pass `index` of a run.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Linear-interpolated quantile `q` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Quantile `q` of a log-bucketed histogram, interpolated linearly inside
/// the bucket that holds the rank, so the reading moves with the data
/// instead of sticking to a bucket edge.
pub fn histogram_quantile(hist: &HistogramSnapshot, q: f64) -> f64 {
    let total = hist.count();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for (low, high, count) in hist.nonzero_buckets() {
        let count = count as f64;
        if seen + count >= rank {
            let within = ((rank - seen) / count).clamp(0.0, 1.0);
            return low as f64 + (high as f64 + 1.0 - low as f64) * within;
        }
        seen += count;
    }
    hist.max_bound().unwrap_or(0) as f64
}
