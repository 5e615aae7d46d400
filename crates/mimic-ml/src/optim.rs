//! The optimizer: Adam.
//!
//! It operates on `(param, grad)` slice pairs visited in a fixed
//! order by the model's `visit` methods, keeping per-parameter state
//! (momenta) positionally — simple, allocation-free after the first step,
//! and deterministic.

/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Denominator guard.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    pub lr: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Begin a step; apply to every `(param, grad)` pair in order.
    pub fn step(&mut self) -> AdamStep<'_> {
        self.t += 1;
        AdamStep { opt: self, idx: 0 }
    }
}

/// One in-progress Adam step.
pub struct AdamStep<'a> {
    opt: &'a mut Adam,
    idx: usize,
}

impl AdamStep<'_> {
    pub fn apply(&mut self, params: &mut [f32], grads: &mut [f32]) {
        if self.opt.m.len() <= self.idx {
            self.opt.m.push(vec![0.0; params.len()]);
            self.opt.v.push(vec![0.0; params.len()]);
        }
        let t = self.opt.t as f32;
        let bc1 = 1.0 - BETA1.powf(t);
        let bc2 = 1.0 - BETA2.powf(t);
        let m = &mut self.opt.m[self.idx];
        let v = &mut self.opt.v[self.idx];
        assert_eq!(m.len(), params.len(), "parameter shapes changed");
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = BETA1 * m[i] + (1.0 - BETA1) * g;
            v[i] = BETA2 * v[i] + (1.0 - BETA2) * g * g;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            params[i] -= self.opt.lr * mhat / (vhat.sqrt() + EPS);
        }
        grads.fill(0.0);
        self.idx += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x-3)^2 starting from 0.
    fn quadratic_descent(mut do_step: impl FnMut(&mut [f32], &mut [f32]), iters: usize) -> f32 {
        let mut x = [0.0f32];
        for _ in 0..iters {
            let mut g = [2.0 * (x[0] - 3.0)];
            do_step(&mut x, &mut g);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.2);
        let x = quadratic_descent(|p, g| adam.step().apply(p, g), 200);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn grads_are_cleared_after_apply() {
        let mut adam = Adam::new(0.1);
        let mut p = [1.0f32, 2.0];
        let mut g = [0.5f32, -0.5];
        adam.step().apply(&mut p, &mut g);
        assert_eq!(g, [0.0, 0.0]);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the first step is ~lr regardless of grad
        // magnitude.
        let mut adam = Adam::new(0.1);
        let mut p = [0.0f32];
        let mut g = [1e-4f32];
        adam.step().apply(&mut p, &mut g);
        assert!((p[0] + 0.1).abs() < 1e-3, "p = {}", p[0]);
    }

    #[test]
    fn multiple_param_groups_tracked_separately() {
        let mut adam = Adam::new(0.1);
        let (mut p1, mut p2) = ([0.0f32], [0.0f32; 2]);
        for _ in 0..10 {
            let mut g1 = [2.0 * (p1[0] - 1.0)];
            let mut g2 = [2.0 * (p2[0] + 1.0), 2.0 * (p2[1] - 2.0)];
            let mut step = adam.step();
            step.apply(&mut p1, &mut g1);
            step.apply(&mut p2, &mut g2);
        }
        assert!(p1[0] > 0.5);
        assert!(p2[0] < -0.5);
        assert!(p2[1] > 0.5);
    }
}
