//! Analytic FLOP accounting (paper Appendix G).
//!
//! The paper compares compute consumption of full simulation vs. MimicNet
//! by counting floating-point operations. For our CPU models the counts
//! are exact functions of layer dimensions; training costs roughly
//! 3× the forward pass (forward + backward ≈ 2× forward).

/// FLOPs of one `m×k · k×n` matrix multiply (multiply-add counted as 2).
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m * k * n) as u64
}

/// FLOPs of one LSTM forward step for batch `b`.
pub fn lstm_step_flops(input: usize, hidden: usize, b: usize) -> u64 {
    // Gate pre-activations: x·Wx (b×input·4h) + h·Wh (b×hidden·4h) + bias.
    let gates = matmul_flops(b, input, 4 * hidden)
        + matmul_flops(b, hidden, 4 * hidden)
        + (b * 4 * hidden) as u64;
    // Activations (~4 flops each) and cell/hidden updates (~6 per unit).
    let act = (b * 4 * hidden * 4) as u64 + (b * hidden * 6) as u64;
    gates + act
}

/// FLOPs of one head (linear) forward for batch `b`.
pub fn linear_flops(input: usize, output: usize, b: usize) -> u64 {
    matmul_flops(b, input, output) + (b * output) as u64
}

/// FLOPs of one forward pass over a chunk of `w` steps of `b` streams,
/// the head predicting at every step (truncated-BPTT training).
pub fn window_forward_flops(input: usize, hidden: usize, outputs: usize, w: usize, b: usize) -> u64 {
    w as u64 * (lstm_step_flops(input, hidden, b) + linear_flops(hidden, outputs, b))
}

/// FLOPs of one training step over a chunk of `w` steps of `b` streams
/// (forward + backward ≈ 3× forward).
pub fn train_step_flops(input: usize, hidden: usize, outputs: usize, w: usize, b: usize) -> u64 {
    3 * window_forward_flops(input, hidden, outputs, w, b)
}

/// FLOPs of one stateful inference step (batch 1).
pub fn inference_step_flops(input: usize, hidden: usize, outputs: usize) -> u64 {
    lstm_step_flops(input, hidden, 1) + linear_flops(hidden, outputs, 1)
}

/// Rough per-event cost of the discrete-event simulator, in FLOP
/// equivalents. Calibrated to tens of arithmetic ops per event (queue
/// bookkeeping, route hash, timestamps) — the paper's Appendix G makes a
/// similar apples-to-oranges conversion to compare CPU simulation with
/// GPU model math.
pub const SIM_EVENT_FLOPS: u64 = 50;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_count() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
    }

    #[test]
    fn lstm_dominated_by_gates() {
        let f = lstm_step_flops(30, 64, 1);
        let gates_only = matmul_flops(1, 30, 256) + matmul_flops(1, 64, 256);
        assert!(f > gates_only);
        assert!(f < gates_only * 2);
    }

    #[test]
    fn window_scales_linearly() {
        let one = window_forward_flops(30, 64, 3, 1, 1);
        let twelve = window_forward_flops(30, 64, 3, 12, 1);
        assert!(twelve > 11 * (one - linear_flops(64, 3, 1)));
    }

    #[test]
    fn training_costs_more_than_inference() {
        assert!(
            train_step_flops(30, 64, 3, 12, 32)
                > 32 * window_forward_flops(30, 64, 3, 12, 1)
        );
    }
}
