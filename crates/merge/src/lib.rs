//! Phase I: multi-function merged-circuit construction.
//!
//! Given the set of viable functions `F = (f₀ … fₙ₋₁)`, the designer builds
//! one circuit that computes all of them behind output multiplexers driven
//! by `⌈log₂ n⌉` select inputs (paper Fig. 2). The input and output pins of
//! each function may first be permuted — the degree of freedom Phase II
//! optimizes — because the adversary cannot know which physical wire
//! carries which logical signal.
//!
//! # Example
//!
//! ```
//! use mvf_merge::{build_merged, PinAssignment};
//! use mvf_sboxes::optimal_sboxes;
//!
//! let funcs = &optimal_sboxes()[..2];
//! let assignment = PinAssignment::identity(funcs);
//! let merged = build_merged(funcs, &assignment)?;
//! assert_eq!(merged.n_selects, 1);
//! merged.check()?; // every select value realizes its function
//! # Ok::<(), mvf_merge::MergeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use mvf_aig::{build, Aig, Lit};
use mvf_logic::VectorFunction;

/// Errors from merged-circuit construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// The viable-function list was empty.
    NoFunctions,
    /// The functions disagree in input or output arity.
    ShapeMismatch,
    /// A pin permutation was malformed.
    BadAssignment,
    /// A merged-circuit output did not match its function (internal
    /// consistency check).
    Mismatch {
        /// Which function failed.
        function: usize,
        /// Which output bit failed.
        output: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoFunctions => write!(f, "no viable functions supplied"),
            MergeError::ShapeMismatch => {
                write!(f, "viable functions must share input/output arity")
            }
            MergeError::BadAssignment => write!(f, "pin assignment is not a permutation"),
            MergeError::Mismatch { function, output } => {
                write!(
                    f,
                    "merged circuit disagrees with function {function} output {output}"
                )
            }
        }
    }
}

impl Error for MergeError {}

/// The Phase-II genotype: per-function input and output pin permutations.
///
/// `input_perms[j][v] = w` wires logical input `v` of function `j` to
/// merged-circuit input wire `w`; `output_perms[j][o] = p` places logical
/// output `o` of function `j` on merged output `p`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PinAssignment {
    /// Per-function input permutations.
    pub input_perms: Vec<Vec<usize>>,
    /// Per-function output permutations.
    pub output_perms: Vec<Vec<usize>>,
}

impl PinAssignment {
    /// The identity assignment for the given function list.
    pub fn identity(functions: &[VectorFunction]) -> Self {
        PinAssignment {
            input_perms: functions
                .iter()
                .map(|f| (0..f.n_inputs()).collect())
                .collect(),
            output_perms: functions
                .iter()
                .map(|f| (0..f.n_outputs()).collect())
                .collect(),
        }
    }

    /// Validates the assignment against a function list: one input and
    /// one output permutation per function, each a permutation of that
    /// function's pins.
    ///
    /// # Errors
    ///
    /// [`MergeError::BadAssignment`] if any list has the wrong length or
    /// any permutation repeats or skips a pin.
    pub fn check(&self, functions: &[VectorFunction]) -> Result<(), MergeError> {
        if self.input_perms.len() != functions.len() || self.output_perms.len() != functions.len() {
            return Err(MergeError::BadAssignment);
        }
        for (f, (ip, op)) in functions
            .iter()
            .zip(self.input_perms.iter().zip(&self.output_perms))
        {
            if !is_permutation(ip, f.n_inputs()) || !is_permutation(op, f.n_outputs()) {
                return Err(MergeError::BadAssignment);
            }
        }
        Ok(())
    }
}

fn is_permutation(p: &[usize], n: usize) -> bool {
    if p.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &x in p {
        if x >= n || seen[x] {
            return false;
        }
        seen[x] = true;
    }
    true
}

/// A merged multi-function circuit (paper Fig. 2).
#[derive(Debug, Clone)]
pub struct MergedCircuit {
    /// The circuit: inputs are the shared data wires followed by the
    /// select wires; outputs are the muxed function outputs.
    pub aig: Aig,
    /// Number of shared data inputs.
    pub n_data_inputs: usize,
    /// Number of binary select inputs (`⌈log₂ n⌉`).
    pub n_selects: usize,
    /// Input indices (into `aig` inputs) of the select wires.
    pub select_indices: Vec<usize>,
    /// The pin-permuted viable functions: `functions[j]` is what the
    /// circuit computes when the select value is `j`.
    pub functions: Vec<VectorFunction>,
}

impl MergedCircuit {
    /// Verifies that for every select value `j` the circuit computes
    /// `functions[j]` (exhaustive check).
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::Mismatch`] on the first disagreement.
    pub fn check(&self) -> Result<(), MergeError> {
        let outs = self.aig.output_functions();
        for (j, g) in self.functions.iter().enumerate() {
            for (o, expect) in g.outputs().iter().enumerate() {
                // Fix the selects to j and compare over the data inputs.
                let mut t = outs[o].clone();
                for (b, &si) in self.select_indices.iter().enumerate() {
                    t = t.cofactor(si, j & (1 << b) != 0);
                }
                let t = t.project(&(0..self.n_data_inputs).collect::<Vec<_>>());
                if &t != expect {
                    return Err(MergeError::Mismatch {
                        function: j,
                        output: o,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Builds the merged circuit of Fig. 2 for the given viable functions and
/// pin assignment.
///
/// Inputs `0..n_inputs` are the shared data wires (named `i*`), followed
/// by `⌈log₂ n⌉` select wires (named `sel*`). Outputs are named `o*`.
///
/// # Errors
///
/// Returns a [`MergeError`] when the function list is empty, shapes
/// disagree, or the assignment is malformed.
pub fn build_merged(
    functions: &[VectorFunction],
    assignment: &PinAssignment,
) -> Result<MergedCircuit, MergeError> {
    let Some(first) = functions.first() else {
        return Err(MergeError::NoFunctions);
    };
    let n_in = first.n_inputs();
    let n_out = first.n_outputs();
    if functions
        .iter()
        .any(|f| f.n_inputs() != n_in || f.n_outputs() != n_out)
    {
        return Err(MergeError::ShapeMismatch);
    }
    assignment.check(functions)?;

    let n_funcs = functions.len();
    let n_sel = if n_funcs <= 1 {
        0
    } else {
        (usize::BITS - (n_funcs - 1).leading_zeros()) as usize
    };
    let permuted: Vec<VectorFunction> = functions
        .iter()
        .zip(assignment.input_perms.iter().zip(&assignment.output_perms))
        .map(|(f, (ip, op))| {
            f.permute_inputs(ip)
                .and_then(|g| g.permute_outputs(op))
                .map_err(|_| MergeError::BadAssignment)
        })
        .collect::<Result<_, _>>()?;

    let mut aig = Aig::new(n_in + n_sel);
    for i in 0..n_in {
        aig.set_input_name(i, format!("i{i}"));
    }
    for s in 0..n_sel {
        aig.set_input_name(n_in + s, format!("sel{s}"));
    }
    let data_leaves: Vec<Lit> = (0..n_in + n_sel).map(|i| aig.input(i)).collect();
    let sel_lits: Vec<Lit> = (0..n_sel).map(|s| aig.input(n_in + s)).collect();

    for o in 0..n_out {
        let mut taps = Vec::with_capacity(n_funcs);
        for g in &permuted {
            let tt = g.output(o).extend(n_in + n_sel);
            taps.push(build::tt_to_aig(&mut aig, &tt, &data_leaves));
        }
        let y = build::mux_tree(&mut aig, &sel_lits, &taps);
        aig.add_output(format!("o{o}"), y);
    }

    Ok(MergedCircuit {
        aig,
        n_data_inputs: n_in,
        n_selects: n_sel,
        select_indices: (n_in..n_in + n_sel).collect(),
        functions: permuted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_sboxes::{des_sboxes, optimal_sboxes, present_sbox};

    #[test]
    fn single_function_has_no_selects() {
        let funcs = vec![present_sbox()];
        let merged = build_merged(&funcs, &PinAssignment::identity(&funcs)).unwrap();
        assert_eq!(merged.n_selects, 0);
        merged.check().unwrap();
    }

    #[test]
    fn two_functions_one_select() {
        let funcs = optimal_sboxes()[..2].to_vec();
        let merged = build_merged(&funcs, &PinAssignment::identity(&funcs)).unwrap();
        assert_eq!(merged.n_selects, 1);
        assert_eq!(merged.aig.n_inputs(), 5);
        merged.check().unwrap();
    }

    #[test]
    fn sixteen_functions_four_selects() {
        let funcs = optimal_sboxes();
        let merged = build_merged(&funcs, &PinAssignment::identity(&funcs)).unwrap();
        assert_eq!(merged.n_selects, 4);
        merged.check().unwrap();
    }

    #[test]
    fn three_functions_round_up_selects() {
        let funcs = optimal_sboxes()[..3].to_vec();
        let merged = build_merged(&funcs, &PinAssignment::identity(&funcs)).unwrap();
        assert_eq!(merged.n_selects, 2);
        merged.check().unwrap();
    }

    #[test]
    fn des_functions_merge() {
        let funcs = des_sboxes()[..2].to_vec();
        let merged = build_merged(&funcs, &PinAssignment::identity(&funcs)).unwrap();
        assert_eq!(merged.n_data_inputs, 6);
        assert_eq!(merged.aig.n_outputs(), 4);
        merged.check().unwrap();
    }

    #[test]
    fn permuted_assignment_checks_out() {
        let funcs = optimal_sboxes()[..4].to_vec();
        let mut a = PinAssignment::identity(&funcs);
        a.input_perms[1] = vec![2, 0, 3, 1];
        a.input_perms[3] = vec![3, 2, 1, 0];
        a.output_perms[2] = vec![1, 0, 3, 2];
        let merged = build_merged(&funcs, &a).unwrap();
        merged.check().unwrap();
        // The permuted function 1 is the permutation of the original.
        let expect = funcs[1].permute_inputs(&a.input_perms[1]).unwrap();
        assert_eq!(merged.functions[1], expect);
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(
            build_merged(
                &[],
                &PinAssignment {
                    input_perms: vec![],
                    output_perms: vec![]
                }
            )
            .unwrap_err(),
            MergeError::NoFunctions
        );
        let funcs = vec![present_sbox(), des_sboxes()[0].clone()];
        let a = PinAssignment::identity(&funcs);
        assert_eq!(
            build_merged(&funcs, &a).unwrap_err(),
            MergeError::ShapeMismatch
        );

        let funcs = optimal_sboxes()[..2].to_vec();
        let mut a = PinAssignment::identity(&funcs);
        a.input_perms[0] = vec![0, 0, 1, 2];
        assert_eq!(
            build_merged(&funcs, &a).unwrap_err(),
            MergeError::BadAssignment
        );
    }

    #[test]
    fn io_names_follow_convention() {
        let funcs = optimal_sboxes()[..2].to_vec();
        let merged = build_merged(&funcs, &PinAssignment::identity(&funcs)).unwrap();
        assert_eq!(merged.aig.input_name(0), "i0");
        assert_eq!(merged.aig.input_name(4), "sel0");
        assert_eq!(merged.aig.outputs()[0].0, "o0");
    }
}
