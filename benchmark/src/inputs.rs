//! Workload inputs, made from the seed, and the interpreter oracle.
//!
//! Every input is a *pre-SSA* function (mutable virtual registers). The
//! oracle's reference behaviour is the interpreter running that pre-SSA
//! input, never anything the compiler under test produced.

use out_of_ssa::cfggen::{
    generate_function, spec_config, spec_num_functions, GenConfig, SPEC_BENCHMARKS,
};
use out_of_ssa::interp::{argument_sets, same_behaviour, Interpreter, Observation};
use out_of_ssa::ir::Function;
use out_of_ssa::liveness::FunctionAnalyses;

/// Interpreter budget per execution. Generated functions always terminate;
/// the budget only has to exceed the longest of them (the large functions'
/// nested loops), and an input that still exhausts it fails set-up.
pub const FUEL: u64 = 50_000_000;

/// Argument sets each function is executed on.
pub const ARG_SETS: usize = 4;

/// Generator shape of the `large_fn` workload: about 1,700 instructions per
/// function, ~13× a SPEC-like function.
fn large_config() -> GenConfig {
    GenConfig { num_vars: 24, num_stmts: 1200, max_depth: 5, ..GenConfig::default() }
}

/// Distinct per-function generator seed: function `index` of copy `copy` of
/// a workload run with `seed`. Copies are what make the SPEC shapes number
/// more than a thousand distinct functions.
fn function_seed(seed: u64, copy: u64, base: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(copy << 40)
}

/// `copies` seed-shifted copies of the eleven SPEC CINT2000 shapes at scale
/// 1.0 (200 functions per copy).
pub fn spec_jit_inputs(seed: u64, copies: usize) -> Vec<Function> {
    let mut inputs = Vec::new();
    for copy in 0..copies as u64 {
        for spec in &SPEC_BENCHMARKS {
            let config = spec_config(spec, 1.0);
            for i in 0..spec_num_functions(spec, 1.0) as u64 {
                let name = format!("{}::c{copy}::fn{i}", spec.name);
                inputs.push(generate_function(
                    name,
                    &config,
                    function_seed(seed, copy, spec.seed + i),
                ));
            }
        }
    }
    inputs
}

/// `count` large functions of [`large_config`] shape.
pub fn large_fn_inputs(seed: u64, count: usize) -> Vec<Function> {
    let config = large_config();
    (0..count as u64)
        .map(|i| generate_function(format!("large::fn{i}"), &config, function_seed(seed, i, 1_700)))
        .collect()
}

/// `count` small functions ([`GenConfig::small`]) for the service.
pub fn service_inputs(seed: u64, count: usize) -> Vec<Function> {
    let config = GenConfig::small();
    (0..count as u64)
        .map(|i| generate_function(format!("svc::fn{i}"), &config, function_seed(seed, i, 12)))
        .collect()
}

/// FNV-1a over the printed form of `funcs`: identical hashes mean
/// identical code.
pub fn hash_functions<'a>(funcs: impl IntoIterator<Item = &'a Function>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for func in funcs {
        for byte in func.display().to_string().bytes().chain([0u8]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Frequency-weighted instruction count of the pre-SSA inputs, with the
/// block weights of `OutOfSsaStats::remaining_weighted` (10 per loop
/// level). The translation cannot change it, which makes it the
/// denominator of the `weighted_copies` ratio.
pub fn weighted_size(inputs: &[Function]) -> f64 {
    let mut analyses = FunctionAnalyses::new();
    let mut weighted = 0.0;
    for func in inputs {
        analyses.invalidate_cfg();
        let freq = analyses.frequencies(func);
        for &block in func.layout() {
            weighted += freq.frequency(block) * func.block_len(block) as f64;
        }
    }
    weighted
}

/// The reference behaviour of each input on the workload's argument sets.
pub struct Oracle {
    args: Vec<Vec<i64>>,
    expected: Vec<Vec<Observation>>,
}

impl Oracle {
    /// Interprets every pre-SSA input on `ARG_SETS` argument sets derived
    /// from `seed`. Fails if an input does not run to completion.
    pub fn new(seed: u64, inputs: &[Function]) -> Result<Self, String> {
        let num_args = inputs.iter().map(|f| f.num_params).max().unwrap_or(0) as usize;
        let args = argument_sets(seed, ARG_SETS, num_args);
        let interp = Interpreter::new().with_fuel(FUEL);
        let expected = inputs
            .iter()
            .map(|func| {
                args.iter()
                    .map(|a| {
                        interp
                            .run(func, &a[..func.num_params as usize])
                            .map_err(|e| format!("reference run of {} failed: {e}", func.name))
                    })
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { args, expected })
    }

    /// Interpreter steps of the pre-SSA inputs on all argument sets.
    pub fn reference_steps(&self) -> u64 {
        self.expected.iter().flatten().map(|o| o.steps).sum()
    }

    /// Runs the translated `output` of input `index` on every argument set
    /// and compares it with the reference. Returns the interpreter steps
    /// executed, or why the output is wrong.
    pub fn check(&self, index: usize, output: &Function) -> Result<u64, String> {
        let interp = Interpreter::new().with_fuel(FUEL);
        let mut steps = 0;
        for (args, reference) in self.args.iter().zip(&self.expected[index]) {
            let observed = interp
                .run(output, &args[..output.num_params as usize])
                .map_err(|e| format!("{} failed to run after translation: {e}", output.name))?;
            if !same_behaviour(reference, &observed) {
                return Err(format!("{} behaves differently after translation", output.name));
            }
            steps += observed.steps;
        }
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_copies_are_distinct_functions() {
        let _serial = crate::tests::serial();
        let inputs = spec_jit_inputs(1, 2);
        assert_eq!(inputs.len(), 400);
        assert_ne!(hash_functions(&inputs[..200]), hash_functions(&inputs[200..]));
    }

    #[test]
    fn the_reference_accepts_the_input_itself() {
        let _serial = crate::tests::serial();
        let inputs = service_inputs(3, 8);
        let oracle = Oracle::new(3, &inputs).expect("inputs run");
        for (i, func) in inputs.iter().enumerate() {
            assert!(oracle.check(i, func).expect("same function") > 0);
        }
    }
}
