//! The [`ObfuscationSpace`] seam: one borrowed view unifying every
//! obfuscation family whose secret is a product of per-site discrete
//! choices.

use std::collections::HashMap;

use mvf_cells::{CamoLibrary, Library};
use mvf_logic::{TruthTable, TtArena};
use mvf_netlist::fingerprint::fingerprint_session_scheme;
use mvf_netlist::{CellId, CellRef, Netlist};
use mvf_sat::CircuitCnf;
use mvf_sim::{eval_camo_netlist_vectors_with, ValidationError};

/// Which obfuscation family a space (and everything keyed by it)
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Per-cell camouflage: doping-programmable look-alike cells whose
    /// choice sets are cofactor closures (the paper's family).
    Camouflage,
    /// Logic locking: XOR/XNOR and MUX key gates whose choice sets are
    /// the functions the unknown key bit selects between.
    Locking,
}

impl SchemeKind {
    /// The stable wire/fingerprint tag (`"camo"` / `"locking"`). Part of
    /// the serve wire format and the session-key preimage — never reuse
    /// or reorder these strings.
    pub fn tag(self) -> &'static str {
        match self {
            SchemeKind::Camouflage => "camo",
            SchemeKind::Locking => "locking",
        }
    }

    /// Parses [`SchemeKind::tag`].
    pub fn from_tag(tag: &str) -> Option<SchemeKind> {
        match tag {
            "camo" => Some(SchemeKind::Camouflage),
            "locking" => Some(SchemeKind::Locking),
            _ => None,
        }
    }
}

/// A borrowed view of one obfuscated netlist's choice space: the scheme
/// tag plus the libraries its cell references index.
///
/// Every obfuscation family in this workspace represents its per-site
/// choice sets as look-alike cells in a [`CamoLibrary`] — for camouflage
/// that library *is* the camouflaged standard library; for locking it is
/// the dedicated key-gate library ([`crate::lock_library`]). The space
/// therefore carries no state of its own and is free to construct at
/// every call site, which is what keeps the refactored camouflage path
/// bit-identical to the pre-seam code: same libraries, same odometer,
/// same encoding, just routed through one named abstraction.
#[derive(Debug, Clone, Copy)]
pub struct ObfuscationSpace<'a> {
    kind: SchemeKind,
    lib: &'a Library,
    choices: &'a CamoLibrary,
}

impl<'a> ObfuscationSpace<'a> {
    /// The per-cell camouflage space over the standard library and its
    /// camouflaged variants.
    pub fn camouflage(lib: &'a Library, camo: &'a CamoLibrary) -> Self {
        ObfuscationSpace {
            kind: SchemeKind::Camouflage,
            lib,
            choices: camo,
        }
    }

    /// The logic-locking space over the standard library and a key-gate
    /// library (usually [`crate::lock_library`]).
    pub fn locking(lib: &'a Library, lock: &'a CamoLibrary) -> Self {
        ObfuscationSpace {
            kind: SchemeKind::Locking,
            lib,
            choices: lock,
        }
    }

    /// A space with an explicit scheme tag — for call sites that carry
    /// the scheme as data (the audit service's config, decoded wire
    /// payloads).
    pub fn with_kind(kind: SchemeKind, lib: &'a Library, choices: &'a CamoLibrary) -> Self {
        ObfuscationSpace { kind, lib, choices }
    }

    /// The scheme family.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// The standard-cell library the netlist's `Std` references index.
    pub fn library(&self) -> &'a Library {
        self.lib
    }

    /// The choice-set library the netlist's `Camo` references index:
    /// camouflaged look-alikes or key gates, depending on the scheme.
    pub fn choices(&self) -> &'a CamoLibrary {
        self.choices
    }

    /// The obfuscated sites of `nl` in topological cell order, each with
    /// its choice count. The product of the counts is the size of the
    /// configuration space the adversary quantifies over.
    pub fn sites(&self, nl: &Netlist) -> Vec<(CellId, usize)> {
        nl.topo_cells()
            .into_iter()
            .filter_map(|cid| match nl.cell(cid).cell {
                CellRef::Camo(id) => Some((cid, self.choices.cell(id).plausible().len())),
                CellRef::Std(_) => None,
            })
            .collect()
    }

    /// Enumerates the full per-site configuration product in topological
    /// cell order — an odometer over each site's sorted choice set, the
    /// **last site varying fastest** — or `None` when the product exceeds
    /// `cap`. This order is pinned: the screen's surviving-config masks,
    /// the brute-force test corpora and the SAT encoding's selector
    /// space all index configurations by it.
    pub fn enumerate_configs(
        &self,
        nl: &Netlist,
        cap: usize,
    ) -> Option<Vec<HashMap<CellId, TruthTable>>> {
        let mut cells: Vec<(CellId, &[TruthTable])> = Vec::new();
        let mut product = 1usize;
        for cid in nl.topo_cells() {
            if let CellRef::Camo(id) = nl.cell(cid).cell {
                let plausible = self.choices.cell(id).plausible();
                product = product.checked_mul(plausible.len()).filter(|&p| p <= cap)?;
                cells.push((cid, plausible));
            }
        }
        let mut configs = Vec::with_capacity(product);
        let mut odometer = vec![0usize; cells.len()];
        loop {
            configs.push(
                cells
                    .iter()
                    .zip(&odometer)
                    .map(|(&(cid, plausible), &d)| (cid, plausible[d].clone()))
                    .collect(),
            );
            // Advance the least-significant digit (the last obfuscated cell).
            let mut pos = cells.len();
            loop {
                if pos == 0 {
                    return Some(configs);
                }
                pos -= 1;
                odometer[pos] += 1;
                if odometer[pos] < cells[pos].1.len() {
                    break;
                }
                odometer[pos] = 0;
            }
        }
    }

    /// Tseitin-encodes the netlist, unrolled over every input row and
    /// constant-folded per row ([`mvf_sat::encode_netlist`]), with one
    /// exactly-one selector group per obfuscated site — the SAT half of
    /// the configuration space [`ObfuscationSpace::enumerate_configs`]
    /// enumerates. Nothing is frozen: callers that simplify the solver
    /// call [`CircuitCnf::freeze_interface`] first.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::check_with_camo`] against
    /// the space's libraries.
    pub fn encode(&self, nl: &Netlist) -> CircuitCnf {
        mvf_sat::encode_netlist(nl, self.lib, self.choices)
    }

    /// Word-parallel multi-configuration vector evaluation — the screen
    /// half of the funnel. `out[j][o][w]` bit `b` is output `o` under
    /// configuration `j` on input `vectors[64 w + b]`.
    ///
    /// # Errors
    ///
    /// [`ValidationError`] if a configuration binds a site to a function
    /// outside its choice set (impossible for configurations produced by
    /// [`ObfuscationSpace::enumerate_configs`]).
    pub fn eval_vectors(
        &self,
        nl: &Netlist,
        configs: &[HashMap<CellId, TruthTable>],
        vectors: &[u64],
    ) -> Result<Vec<Vec<Vec<u64>>>, ValidationError> {
        self.eval_vectors_with(nl, configs, vectors, &mut TtArena::default())
    }

    /// [`ObfuscationSpace::eval_vectors`] with a caller-owned arena.
    ///
    /// # Errors
    ///
    /// See [`ObfuscationSpace::eval_vectors`].
    pub fn eval_vectors_with(
        &self,
        nl: &Netlist,
        configs: &[HashMap<CellId, TruthTable>],
        vectors: &[u64],
        arena: &mut TtArena,
    ) -> Result<Vec<Vec<Vec<u64>>>, ValidationError> {
        eval_camo_netlist_vectors_with(nl, self.lib, self.choices, configs, vectors, arena)
    }

    /// The session cache key: netlist structure, both libraries'
    /// content, **and the scheme tag** — two schemes over the same
    /// netlist never share a session.
    pub fn fingerprint(&self, nl: &Netlist) -> u64 {
        fingerprint_session_scheme(nl, self.lib, self.choices, self.kind.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for kind in [SchemeKind::Camouflage, SchemeKind::Locking] {
            assert_eq!(SchemeKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(SchemeKind::from_tag("salted"), None);
    }

    #[test]
    fn sites_follow_topo_order_and_choice_counts() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let nand = camo
            .iter()
            .find(|(_, c)| c.name() == "NAND2")
            .map(|(id, _)| id)
            .unwrap();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (c1, x) = nl.add_cell("u1", CellRef::Camo(nand), vec![a, b]);
        let (c2, y) = nl.add_cell("u2", CellRef::Camo(nand), vec![x, b]);
        nl.add_output("y", y);
        let space = ObfuscationSpace::camouflage(&lib, &camo);
        assert_eq!(space.sites(&nl), vec![(c1, 5), (c2, 5)]);
        let configs = space.enumerate_configs(&nl, 4096).unwrap();
        assert_eq!(configs.len(), 25);
        // Last site varies fastest: the first five configs share u1's
        // first choice and walk u2's sorted choice set.
        let first = &configs[0][&c1];
        assert!(configs[1..5].iter().all(|cfg| &cfg[&c1] == first));
        assert!(space.enumerate_configs(&nl, 24).is_none());
    }

    #[test]
    fn scheme_changes_the_fingerprint() {
        let lib = Library::standard();
        let camo = CamoLibrary::from_library(&lib);
        let nand = camo
            .iter()
            .find(|(_, c)| c.name() == "NAND2")
            .map(|(id, _)| id)
            .unwrap();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, y) = nl.add_cell("u1", CellRef::Camo(nand), vec![a, b]);
        nl.add_output("y", y);
        let as_camo = ObfuscationSpace::camouflage(&lib, &camo).fingerprint(&nl);
        let as_lock = ObfuscationSpace::locking(&lib, &camo).fingerprint(&nl);
        assert_ne!(as_camo, as_lock, "scheme tag must be committed");
    }
}
