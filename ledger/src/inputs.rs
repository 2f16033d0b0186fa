//! Seeded inputs. The seed drives the field generators and nothing else:
//! the library only ever receives the generated fields.

use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::host::{GaugeConfig, HostSpinorField};
use quda_lattice::geometry::LatticeDims;

/// Noise amplitude of every weak-field gauge configuration (Section VII-A).
const EPS: f64 = 0.1;

/// One workload's inputs: a gauge field and the sources solved against it.
pub struct Inputs {
    pub gauge: GaugeConfig,
    /// `sources[k]` is `random_spinor_field(dims, seed + 1 + k)`.
    pub sources: Vec<HostSpinorField>,
    /// The discarded warm-up right-hand side (`seed + 1 + sources.len()`).
    pub warmup: HostSpinorField,
}

impl Inputs {
    pub fn generate(dims: LatticeDims, seed: u64, n_sources: usize) -> Inputs {
        let source = |k: usize| random_spinor_field(dims, seed + 1 + k as u64);
        Inputs {
            gauge: weak_field(dims, EPS, seed),
            sources: (0..n_sources).map(source).collect(),
            warmup: source(n_sources),
        }
    }

    /// FNV-1a over the bit patterns of every generated real, in field
    /// order: equal exactly when two runs fed the library the same inputs.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for u in &self.gauge.links {
            for z in u.m.iter().flatten() {
                h.push(z.re);
                h.push(z.im);
            }
        }
        for f in self.sources.iter().chain([&self.warmup]) {
            for z in f.data.iter().flat_map(|sp| &sp.s).flat_map(|cv| &cv.c) {
                h.push(z.re);
                h.push(z.im);
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn push(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let dims = LatticeDims::new(2, 2, 2, 4);
        let a = Inputs::generate(dims, 2010, 3).hash();
        assert_eq!(a, Inputs::generate(dims, 2010, 3).hash());
        assert_ne!(a, Inputs::generate(dims, 2011, 3).hash());
        // The source count is part of the input, too.
        assert_ne!(a, Inputs::generate(dims, 2010, 2).hash());
    }
}
