//! x86 comparison column (DESIGN.md §2 substitution).
//!
//! The paper's x86 numbers come from x86 Dyninst instrumenting the same
//! matmul application. We have no x86 Dyninst, but the *mechanism* behind
//! the x86 column's large per-block overhead is known from §4.3: the x86
//! version lacked the dead-register allocation, so every trampoline
//! spills/restores scratch registers around the counter increment.
//!
//! This module measures, natively on the host (an x86-64 machine in this
//! environment):
//!
//! * `base` — the same triple-loop f64 matmul, written to match the
//!   11-block shape of the RISC-V mutatee;
//! * `fn_count` — one volatile counter increment per call;
//! * `bb_count` — a volatile counter increment at each of the 11 block
//!   positions, wrapped in volatile spill/fill pairs that model the
//!   pre-optimisation trampoline (two registers saved and restored, as a
//!   counter snippet needs).
//!
//! Volatile accesses pin the instrumentation in place (no LICM, no
//! vectorisation of the probes), which is exactly the property real
//! trampolines have.

/// The counter cell. `write_volatile`/`read_volatile` keep every probe.
static mut COUNTER: u64 = 0;
/// The modelled spill slots (the "stack frame" of the trampoline).
static mut SPILL: [u64; 2] = [0; 2];

#[inline(always)]
fn probe_counter_only() {
    unsafe {
        let c = std::ptr::read_volatile(&raw const COUNTER);
        std::ptr::write_volatile(&raw mut COUNTER, c + 1);
    }
}

/// The pre-dead-register-allocation trampoline: save two scratch
/// registers, bump the counter, restore. (On real x86 Dyninst this was a
/// pushf/push/…/pop sequence; the volatile traffic models its memory
/// round trips.)
#[inline(always)]
fn probe_with_spills(r1: u64, r2: u64) -> (u64, u64) {
    unsafe {
        std::ptr::write_volatile(&raw mut SPILL[0], r1);
        std::ptr::write_volatile(&raw mut SPILL[1], r2);
        let c = std::ptr::read_volatile(&raw const COUNTER);
        std::ptr::write_volatile(&raw mut COUNTER, c + 1);
        (
            std::ptr::read_volatile(&raw const SPILL[0]),
            std::ptr::read_volatile(&raw const SPILL[1]),
        )
    }
}

/// Instrumentation flavour for the native matmul.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    None,
    FunctionEntry,
    PerBlock,
}

/// The matmul kernel, block structure matching the RISC-V mutatee's 11
/// blocks; probes are placed at the same positions PatchAPI instruments.
#[inline(never)]
pub fn matmul(a: &[f64], b: &[f64], c: &mut [f64], n: usize, probe: Probe) {
    macro_rules! bb {
        ($i:expr, $k:expr) => {
            match probe {
                Probe::PerBlock => {
                    let _ = probe_with_spills($i as u64, $k as u64);
                }
                _ => {}
            }
        };
    }
    // B1: entry
    if probe == Probe::FunctionEntry {
        probe_counter_only();
    }
    bb!(0, 0);
    let mut i = 0;
    loop {
        // B2: i-head
        bb!(i, 0);
        if i >= n {
            break;
        }
        // B3: j-init
        bb!(i, 1);
        let mut j = 0;
        loop {
            // B4: j-head
            bb!(i, j);
            if j >= n {
                break;
            }
            // B5: k-init
            bb!(i, j);
            let mut sum = 0.0f64;
            let mut k = 0;
            loop {
                // B6: k-head
                bb!(j, k);
                if k >= n {
                    break;
                }
                // B7: k-body
                bb!(i, k);
                sum = a[i * n + k].mul_add(b[k * n + j], sum);
                k += 1;
            }
            // B8: store
            bb!(i, j);
            c[i * n + j] = sum;
            // B9: j-inc
            bb!(i, j);
            j += 1;
        }
        // B10: i-inc
        bb!(i, 0);
        i += 1;
    }
    // B11: exit
    bb!(n, n);
}

/// Measure `reps` calls of `matmul(n)` with `probe`; returns seconds
/// (best of three to shed scheduler noise).
pub fn measure(n: usize, reps: usize, probe: Probe) -> f64 {
    let mut a = vec![0.0f64; n * n];
    let mut b = vec![0.0f64; n * n];
    let mut c = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = (i + j) as f64;
            b[i * n + j] = i as f64 - j as f64;
        }
    }
    let (ns, (), ()) = crate::best_of(
        3,
        || (),
        |_| {
            for _ in 0..reps {
                matmul(&a, &b, &mut c, n, probe);
            }
            std::hint::black_box(&c);
        },
    );
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_do_not_change_results() {
        let n = 16;
        let mut a = vec![0.0f64; n * n];
        let mut b = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = (i + j) as f64;
                b[i * n + j] = i as f64 - j as f64;
            }
        }
        let mut c1 = vec![0.0f64; n * n];
        let mut c2 = vec![0.0f64; n * n];
        matmul(&a, &b, &mut c1, n, Probe::None);
        matmul(&a, &b, &mut c2, n, Probe::PerBlock);
        assert_eq!(c1, c2);
    }

    #[test]
    fn per_block_probe_counts_match_riscv_closed_form() {
        unsafe { std::ptr::write_volatile(&raw mut COUNTER, 0) };
        let n = 6usize;
        let a = vec![1.0; n * n];
        let b = vec![1.0; n * n];
        let mut c = vec![0.0; n * n];
        matmul(&a, &b, &mut c, n, Probe::PerBlock);
        let count = unsafe { std::ptr::read_volatile(&raw const COUNTER) };
        let n = n as u64;
        let expect = 1
            + (n + 1)
            + n
            + n * (n + 1)
            + n * n
            + n * n * (n + 1)
            + n * n * n
            + n * n
            + n * n
            + n
            + 1;
        assert_eq!(count, expect, "x86 model must probe the same block set");
    }
}
