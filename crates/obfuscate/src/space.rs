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
        self.sites_among(nl, nl.topo_cells())
    }

    /// The sites in the fan-in cone of output `output`, in topological
    /// cell order, each with its choice count: the only sites whose
    /// choice can change that output's column.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range.
    pub fn cone_sites(&self, nl: &Netlist, output: usize) -> Vec<(CellId, usize)> {
        self.sites_among(nl, nl.cone_cells(&[nl.outputs()[output].1]))
    }

    fn sites_among(&self, nl: &Netlist, cells: Vec<CellId>) -> Vec<(CellId, usize)> {
        cells
            .into_iter()
            .filter_map(|cid| match nl.cell(cid).cell {
                CellRef::Camo(id) => Some((cid, self.choices.cell(id).plausible().len())),
                CellRef::Std(_) => None,
            })
            .collect()
    }

    /// The configuration odometer over `sites` — all of
    /// [`ObfuscationSpace::sites`] or a subset such as
    /// [`ObfuscationSpace::cone_sites`] — stepping each site through its
    /// sorted choice set with the **last site varying fastest**, or
    /// `None` when the product exceeds `cap`. Sites left out are not
    /// bound. This order is pinned: the screen's surviving-config masks,
    /// the brute-force test corpora and the SAT encoding's selector
    /// space all index configurations by it.
    ///
    /// # Panics
    ///
    /// Panics if a site is not an obfuscated cell of `nl`.
    pub fn enumerate_configs(
        &self,
        nl: &Netlist,
        sites: &[(CellId, usize)],
        cap: usize,
    ) -> Option<ConfigOdometer<'a>> {
        let mut product = 1usize;
        let mut choices = Vec::with_capacity(sites.len());
        for &(cid, _) in sites {
            let CellRef::Camo(id) = nl.cell(cid).cell else {
                panic!("cell {} is not an obfuscated site", cid.0);
            };
            let plausible = self.choices.cell(id).plausible();
            product = product.checked_mul(plausible.len()).filter(|&p| p <= cap)?;
            choices.push((cid, plausible));
        }
        Some(ConfigOdometer {
            digits: vec![0; choices.len()],
            sites: choices,
            left: product,
            chunk: Vec::new(),
        })
    }

    /// Tseitin-encodes the netlist, unrolled over every input row and
    /// constant-folded per row ([`mvf_sat::encode_netlist`]), with one
    /// exactly-one selector group per obfuscated site — the SAT half of
    /// the configuration space [`ObfuscationSpace::enumerate_configs`]
    /// enumerates.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::check_with_camo`] against
    /// the space's libraries.
    pub fn encode(&self, nl: &Netlist) -> CircuitCnf {
        mvf_sat::encode_netlist(nl, self.lib, self.choices)
    }

    /// Word-parallel multi-configuration vector evaluation of the fan-in
    /// cone of `outputs` — the screen half of the funnel. `out[j][k][w]`
    /// bit `b` is output `outputs[k]` under configuration `j` on input
    /// `vectors[64 w + b]`. A configuration needs to bind only the sites
    /// in that cone ([`ObfuscationSpace::cone_sites`]).
    ///
    /// # Errors
    ///
    /// [`ValidationError`] if a configuration leaves a cone site unbound
    /// or binds it to a function outside its choice set (impossible for
    /// configurations produced by [`ObfuscationSpace::enumerate_configs`]
    /// over the cone's sites).
    pub fn eval_vectors(
        &self,
        nl: &Netlist,
        outputs: &[usize],
        configs: &[HashMap<CellId, TruthTable>],
        vectors: &[u64],
    ) -> Result<Vec<Vec<Vec<u64>>>, ValidationError> {
        self.eval_vectors_with(nl, outputs, configs, vectors, &mut TtArena::default())
    }

    /// [`ObfuscationSpace::eval_vectors`] with a caller-owned arena.
    ///
    /// # Errors
    ///
    /// See [`ObfuscationSpace::eval_vectors`].
    pub fn eval_vectors_with(
        &self,
        nl: &Netlist,
        outputs: &[usize],
        configs: &[HashMap<CellId, TruthTable>],
        vectors: &[u64],
        arena: &mut TtArena,
    ) -> Result<Vec<Vec<Vec<u64>>>, ValidationError> {
        eval_camo_netlist_vectors_with(nl, self.lib, self.choices, outputs, configs, vectors, arena)
    }

    /// The session cache key: netlist structure, both libraries'
    /// content, **and the scheme tag** — two schemes over the same
    /// netlist never share a session.
    pub fn fingerprint(&self, nl: &Netlist) -> u64 {
        fingerprint_session_scheme(nl, self.lib, self.choices, self.kind.tag())
    }
}

/// The configuration odometer of [`ObfuscationSpace::enumerate_configs`]:
/// it streams the product of some sites' choice sets in pinned order, in
/// chunks that reuse one buffer ([`ConfigOdometer::next_chunk`]), so a
/// caller never has to hold the whole product.
#[derive(Debug, Clone)]
pub struct ConfigOdometer<'a> {
    /// The enumerated sites with their sorted choice sets.
    sites: Vec<(CellId, &'a [TruthTable])>,
    /// The next configuration's choice index per site.
    digits: Vec<usize>,
    /// Configurations not yet produced.
    left: usize,
    /// The buffer [`ConfigOdometer::next_chunk`] refills.
    chunk: Vec<HashMap<CellId, TruthTable>>,
}

impl ConfigOdometer<'_> {
    /// The next up to `max` configurations, written into a buffer the
    /// odometer reuses across calls; empty once the product is
    /// exhausted.
    pub fn next_chunk(&mut self, max: usize) -> &[HashMap<CellId, TruthTable>] {
        let n = self.left.min(max);
        self.chunk.truncate(n);
        for k in 0..n {
            if k == self.chunk.len() {
                self.chunk.push(HashMap::with_capacity(self.sites.len()));
            }
            let config = &mut self.chunk[k];
            for (&(cid, choices), &d) in self.sites.iter().zip(&self.digits) {
                match config.get_mut(&cid) {
                    Some(f) => f.clone_from(&choices[d]),
                    None => {
                        config.insert(cid, choices[d].clone());
                    }
                }
            }
            self.advance();
        }
        &self.chunk
    }

    /// Steps the odometer: the last site is the least significant digit.
    fn advance(&mut self) {
        self.left -= 1;
        for (digit, &(_, choices)) in self.digits.iter_mut().zip(&self.sites).rev() {
            *digit += 1;
            if *digit < choices.len() {
                return;
            }
            *digit = 0;
        }
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
        let sites = space.sites(&nl);
        assert_eq!(sites, vec![(c1, 5), (c2, 5)]);
        let mut odometer = space.enumerate_configs(&nl, &sites, 4096).unwrap();
        let configs = odometer.next_chunk(usize::MAX).to_vec();
        assert_eq!(configs.len(), 25);
        assert!(odometer.next_chunk(usize::MAX).is_empty());
        // Last site varies fastest: the first five configs share u1's
        // first choice and walk u2's sorted choice set.
        let first = &configs[0][&c1];
        assert!(configs[1..5].iter().all(|cfg| &cfg[&c1] == first));
        assert!(space.enumerate_configs(&nl, &sites, 24).is_none());
        // Smaller chunks stream the same configurations in the same order.
        let mut odometer = space.enumerate_configs(&nl, &sites, 4096).unwrap();
        let mut chunked = Vec::new();
        loop {
            let chunk = odometer.next_chunk(7);
            if chunk.is_empty() {
                break;
            }
            chunked.extend_from_slice(chunk);
        }
        assert_eq!(chunked, configs);
        // u2 reads u1, so y's cone holds both sites; u1's output alone
        // holds u1 only, and its configurations bind nothing else.
        nl.add_output("x", x);
        assert_eq!(space.cone_sites(&nl, 0), sites);
        assert_eq!(space.cone_sites(&nl, 1), vec![(c1, 5)]);
        let cone = space.cone_sites(&nl, 1);
        let mut odometer = space.enumerate_configs(&nl, &cone, 4096).unwrap();
        let configs = odometer.next_chunk(usize::MAX);
        assert_eq!(configs.len(), 5);
        assert!(configs
            .iter()
            .all(|cfg| cfg.len() == 1 && cfg.contains_key(&c1)));
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
