//! What the host itself contributes to a measurement: CPU time, memory,
//! a noise calibrator, and a bandwidth probe.

use std::hint::black_box;
use std::time::Instant;

/// Cache sizes of the host the workloads were sized on (`lscpu`: 2 MiB L2
/// per core, one shared 260 MiB L3), written into every run file beside
/// the bandwidth probe.
pub const L2_BYTES: usize = 2 << 20;
pub const L3_BYTES: usize = 260 << 20;

/// Elements per triad array: 64 MiB of `f64` each, 32× the L2 but inside
/// the 260 MiB L3. Four times the L3 (the choosing-metrics rule for a
/// DRAM figure) would need 3 × 1 GiB on a host whose memory the driver
/// does not promise, so the figure is labelled cache-resident and no
/// roofline ratio is built on it.
pub const TRIAD_ELEMS: usize = (64 << 20) / 8;

/// Process CPU seconds (user + system, all threads) from
/// `/proc/self/stat`; 0 where procfs is missing.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 (utime, stime) count from after the parenthesised
    // command name, which may itself contain spaces.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let ticks: f64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    // USER_HZ is 100 on every Linux ABI Rust targets.
    ticks / 100.0
}

/// Peak resident set in MiB (`VmHWM`); 0 where procfs is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds of a fixed piece of work on two threads — the same two cores
/// the library's rank threads use: twenty passes of complex 3×3
/// matrix-times-vector, gathered through a fixed stride, over 6 MiB per
/// thread (past the L2, like one rank's fields). It does identical work
/// every call and none of it is library code, so the ratio of its slowest
/// to its fastest result within one ledger run says how much the *host*
/// moved. Each thread reports the fastest of three repetitions, which
/// drops scheduling blips and keeps slow periods; the slower thread's
/// figure is returned.
pub fn calibrator_seconds() -> f64 {
    fn work() -> f64 {
        const N: usize = 32768;
        let mats: Vec<[f64; 18]> = (0..N)
            .map(|i| std::array::from_fn(|k| ((i * 18 + k) % 97) as f64 * 0.01 - 0.4))
            .collect();
        let src: Vec<[f64; 6]> = (0..N)
            .map(|i| std::array::from_fn(|k| ((i * 6 + k) % 31) as f64 * 0.03 - 0.4))
            .collect();
        let mut dst = vec![[0.0f64; 6]; N];
        let mut sweep = |passes: usize| {
            let t0 = Instant::now();
            for pass in 0..passes {
                for (i, (m, out)) in mats.iter().zip(dst.iter_mut()).enumerate() {
                    let v = &src[(i * 521 + pass) % N];
                    for r in 0..3 {
                        let (mut re, mut im) = (0.0, 0.0);
                        for c in 0..3 {
                            let (ar, ai) = (m[(r * 3 + c) * 2], m[(r * 3 + c) * 2 + 1]);
                            let (br, bi) = (v[c * 2], v[c * 2 + 1]);
                            re += ar * br - ai * bi;
                            im += ar * bi + ai * br;
                        }
                        out[r * 2] += re;
                        out[r * 2 + 1] += im;
                    }
                }
                black_box(&mut dst);
            }
            t0.elapsed().as_secs_f64()
        };
        // One untimed pass faults the pages in.
        sweep(1);
        (0..3).map(|_| sweep(20)).fold(f64::INFINITY, f64::min)
    }
    std::thread::scope(|s| {
        let other = s.spawn(work);
        let mine = work();
        mine.max(other.join().expect("calibrator thread"))
    })
}

/// STREAM triad `a = b + s·c` on one thread, best GB/s over `reps`
/// passes of [`TRIAD_ELEMS`]-element arrays (24 bytes moved per element,
/// write-allocate not counted).
pub fn stream_triad_gbs(reps: usize) -> f64 {
    let n = TRIAD_ELEMS;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for r in 0..reps.max(1) {
        let s = 3.0 + r as f64;
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (24 * n) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_return_plausible_values() {
        let before = cpu_seconds();
        black_box(calibrator_seconds());
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 1.0);
    }
}
