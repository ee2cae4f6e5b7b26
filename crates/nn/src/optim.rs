//! The Adam optimizer.
//!
//! State is keyed by parameter *position*, so the caller must pass
//! parameters in the same stable order every step — `Model::params_mut`
//! guarantees this.

use crate::layer::Param;
use fgnn_tensor::Matrix;

/// Serializable optimizer state (for checkpoint/resume).
///
/// A flat encoding shared by all optimizers: integer `counters` (e.g.
/// Adam's step count) plus moment `tensors` in a stable, optimizer-defined
/// order. Empty state means "not yet stepped" (lazy moment allocation).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptimizerState {
    /// Integer state, optimizer-defined order.
    pub counters: Vec<u64>,
    /// Moment tensors, optimizer-defined order.
    pub tensors: Vec<Matrix>,
}

/// A gradient-descent optimizer over a stable parameter list.
pub trait Optimizer {
    /// Apply one update step using each parameter's accumulated gradient,
    /// then the caller typically zeroes gradients.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Learning rate currently in effect.
    fn learning_rate(&self) -> f32;

    /// Export mutable state for checkpointing (hyperparameters are config,
    /// not state, and are not included).
    fn export_state(&self) -> OptimizerState;

    /// Restore state exported by [`Optimizer::export_state`] from the same
    /// optimizer type on the same parameter list. Panics on a shape or
    /// count mismatch — that indicates a config/checkpoint mix-up the
    /// caller should have rejected.
    fn import_state(&mut self, state: OptimizerState);
}

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the standard (0.9, 0.999) betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len(), "param list changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            for ((pv, &g), (mv, vv)) in p
                .value
                .as_mut_slice()
                .iter_mut()
                .zip(p.grad.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()))
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * g;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * g * g;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *pv -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn export_state(&self) -> OptimizerState {
        let mut tensors = self.m.clone();
        tensors.extend(self.v.iter().cloned());
        OptimizerState {
            counters: vec![self.t as u64],
            tensors,
        }
    }

    fn import_state(&mut self, state: OptimizerState) {
        assert_eq!(state.counters.len(), 1, "Adam state has one counter (t)");
        assert!(
            state.tensors.len().is_multiple_of(2),
            "Adam moments come in (m, v) pairs"
        );
        self.t = state.counters[0] as u32;
        let half = state.tensors.len() / 2;
        let mut tensors = state.tensors;
        self.v = tensors.split_off(half);
        self.m = tensors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(x0: f32) -> Param {
        Param::new(Matrix::from_vec(1, 1, vec![x0]))
    }

    /// Minimize f(x) = x² (gradient 2x) and expect convergence to 0.
    fn run<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        let mut p = quadratic_param(5.0);
        for _ in 0..steps {
            let x = p.value.get(0, 0);
            p.grad.set(0, 0, 2.0 * x);
            opt.step(&mut [&mut p]);
            p.zero_grad();
        }
        p.value.get(0, 0)
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let x = run(&mut Adam::new(0.2), 300);
        assert!(x.abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, |Δx| of the very first step ≈ lr.
        let mut p = quadratic_param(5.0);
        p.grad.set(0, 0, 10.0);
        let mut opt = Adam::new(0.1);
        opt.step(&mut [&mut p]);
        assert!((p.value.get(0, 0) - 4.9).abs() < 1e-3);
    }

    /// Step `opt` a few times, export state, step a fresh optimizer of the
    /// same kind to the same point via import, and check both continue
    /// identically.
    fn state_round_trip<O: Optimizer>(mut warm: O, mut cold: O) {
        let mut p1 = quadratic_param(5.0);
        for _ in 0..10 {
            let x = p1.value.get(0, 0);
            p1.grad.set(0, 0, 2.0 * x);
            warm.step(&mut [&mut p1]);
            p1.zero_grad();
        }
        cold.import_state(warm.export_state());
        let mut p2 = p1.clone();
        for _ in 0..10 {
            let x1 = p1.value.get(0, 0);
            p1.grad.set(0, 0, 2.0 * x1);
            warm.step(&mut [&mut p1]);
            p1.zero_grad();
            let x2 = p2.value.get(0, 0);
            p2.grad.set(0, 0, 2.0 * x2);
            cold.step(&mut [&mut p2]);
            p2.zero_grad();
            assert_eq!(p1.value.get(0, 0).to_bits(), p2.value.get(0, 0).to_bits());
        }
    }

    #[test]
    fn adam_state_round_trip_is_bitwise() {
        state_round_trip(Adam::new(0.1), Adam::new(0.1));
    }

    #[test]
    #[should_panic(expected = "param list changed")]
    fn optimizer_rejects_changing_param_count() {
        let mut opt = Adam::new(0.1);
        let mut a = quadratic_param(1.0);
        opt.step(&mut [&mut a]);
        let mut b = quadratic_param(1.0);
        opt.step(&mut [&mut a, &mut b]);
    }
}
