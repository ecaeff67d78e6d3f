//! Cost models for the Huawei Collective Communication Library (HCCL).
//!
//! The paper uses HCCL two ways: collectives (`all_reduce`, `broadcast`) for
//! tensor parallelism and NPU-fork, and peer-to-peer `send`/`recv` as
//! DistFlow's default backend. We model completion *time*, not data: the
//! formulas are the standard alpha-beta models for ring/pipelined
//! algorithms, with an efficiency factor folded into the bandwidth term.

use crate::specs::LinkSpec;
use simcore::SimDuration;

/// Fraction of nominal link bandwidth that collectives actually achieve
/// (protocol overhead, imperfect overlap).
pub const COLLECTIVE_EFFICIENCY: f64 = 0.85;

/// Chunk count used by the pipelined broadcast. More chunks flatten the
/// dependence on participant count at the cost of more per-chunk latency.
pub const BROADCAST_PIPELINE_CHUNKS: u64 = 64;

/// Returns the latency component of a link as a duration.
fn alpha(link: &LinkSpec) -> SimDuration {
    SimDuration::from_micros(link.latency_us)
}

/// Effective bandwidth (bytes/s) after the collective efficiency factor.
fn beta_bw(link: &LinkSpec) -> f64 {
    link.bandwidth * COLLECTIVE_EFFICIENCY
}

/// Point-to-point `send`/`recv` time for `bytes` over `link`.
pub fn p2p_time(link: &LinkSpec, bytes: u64) -> SimDuration {
    alpha(link) + SimDuration::from_secs_f64(bytes as f64 / beta_bw(link))
}

/// Ring `all_reduce` over `n` ranks, `bytes` per rank.
///
/// Standard ring cost: `2 (n-1)/n * bytes / bw + 2 (n-1) * alpha`.
/// Degenerates to zero for a single rank.
pub fn all_reduce_time(link: &LinkSpec, n: usize, bytes: u64) -> SimDuration {
    if n <= 1 {
        return SimDuration::ZERO;
    }
    let n_f = n as f64;
    let steps = 2 * (n as u64 - 1);
    let volume = 2.0 * (n_f - 1.0) / n_f * bytes as f64;
    alpha(link).saturating_mul(steps) + SimDuration::from_secs_f64(volume / beta_bw(link))
}

/// Pipelined `broadcast` of `bytes` from one root to `n - 1` receivers.
///
/// The payload is cut into [`BROADCAST_PIPELINE_CHUNKS`] chunks relayed down
/// a chain, so total time is `bytes/bw + (n - 2) * chunk/bw + n-ish alphas` —
/// nearly flat in `n` once the pipeline fills. This is the property NPU-fork
/// exploits to scale to 64 instances (Figure 10a).
pub fn broadcast_time(link: &LinkSpec, n: usize, bytes: u64) -> SimDuration {
    if n <= 1 || bytes == 0 {
        return SimDuration::ZERO;
    }
    let chunk = (bytes as f64 / BROADCAST_PIPELINE_CHUNKS as f64).max(1.0);
    let bw = beta_bw(link);
    let fill = (n as f64 - 2.0).max(0.0) * chunk / bw;
    let stream = bytes as f64 / bw;
    alpha(link).saturating_mul(n as u64 - 1) + SimDuration::from_secs_f64(stream + fill)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hccs() -> LinkSpec {
        LinkSpec {
            bandwidth: 56e9,
            latency_us: 10,
        }
    }

    fn roce() -> LinkSpec {
        LinkSpec {
            bandwidth: 25e9,
            latency_us: 50,
        }
    }

    const GB: u64 = 1 << 30;

    #[test]
    fn p2p_is_latency_plus_transfer() {
        let t = p2p_time(&hccs(), 56_000_000_000 / 2);
        // Half the nominal-bandwidth-second of bytes at 85% efficiency
        // => ~0.588s plus 10us latency.
        assert!((t.as_secs_f64() - (0.5 / 0.85 + 10e-6)).abs() < 1e-6, "{t}");
    }

    #[test]
    fn all_reduce_degenerates_for_one_rank() {
        assert_eq!(all_reduce_time(&hccs(), 1, GB), SimDuration::ZERO);
    }

    #[test]
    fn all_reduce_grows_sublinearly_with_ranks() {
        // The 2(n-1)/n volume factor approaches 2: doubling ranks must not
        // double the time.
        let t2 = all_reduce_time(&hccs(), 2, GB);
        let t8 = all_reduce_time(&hccs(), 8, GB);
        assert!(t8 > t2);
        assert!(t8.as_secs_f64() < 2.0 * t2.as_secs_f64());
    }

    #[test]
    fn broadcast_is_nearly_flat_in_fanout() {
        // Figure 10a: forking to 64 TEs costs barely more than to 2.
        let t2 = broadcast_time(&hccs(), 2, 16 * GB);
        let t64 = broadcast_time(&hccs(), 64, 16 * GB);
        assert!(t64 > t2);
        assert!(
            t64.as_secs_f64() < 2.2 * t2.as_secs_f64(),
            "t2={t2} t64={t64}: pipeline should flatten fan-out"
        );
    }

    #[test]
    fn hccs_beats_roce() {
        // Figure 9: loading with HCCS is significantly faster than RoCE.
        let b = 16 * GB;
        assert!(p2p_time(&hccs(), b) < p2p_time(&roce(), b));
        assert!(broadcast_time(&hccs(), 8, b) < broadcast_time(&roce(), 8, b));
    }

    #[test]
    fn zero_bytes_broadcast_is_free() {
        assert_eq!(broadcast_time(&hccs(), 16, 0), SimDuration::ZERO);
    }
}
