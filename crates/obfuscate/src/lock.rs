//! The logic-locking family: XOR/XNOR and MUX key gates behind the
//! [`ObfuscationSpace`](crate::ObfuscationSpace) seam.
//!
//! Logic locking inserts **key gates** on internal wires: an XOR (or
//! XNOR) gate whose second input is a key bit passes the wire through or
//! inverts it; a 2:1 MUX whose select is a key bit forwards either the
//! original wire or a decoy signal. Under the correct key the circuit
//! computes its original function; under a wrong key it computes
//! something else. From the adversary's seat each key gate is a
//! **one-site discrete choice** — `{A, ¬A}` for an XOR/XNOR site, the
//! two data projections for a MUX site — which is exactly the shape the
//! attack stack already quantifies over for camouflage. The key gates
//! are therefore carried as look-alike cells in a dedicated
//! [`CamoLibrary`] ([`lock_library`]), and the whole screen/SAT/NPN/
//! session machinery applies unchanged.
//!
//! The inserter ([`lock_netlist`]) is deterministic in `(netlist,
//! options)`: same seed, same sites, same decoys, same key — so audits,
//! checkpoints and test corpora reproduce bit-identically.

use std::collections::HashMap;
use std::fmt;

use mvf_cells::{CamoCell, CamoCellId, CamoLibrary, CellKind, Library};
use mvf_logic::{word, TruthTable};
use mvf_netlist::{CellId, CellRef, NetId, Netlist};

/// Name of the XOR/XNOR key-gate cell in a lock library.
pub const XKEY_NAME: &str = "XKEY";
/// Name of the MUX key-gate cell in a lock library.
pub const MKEY_NAME: &str = "MKEY";

/// The flavor of an inserted key gate.
///
/// XOR and XNOR share the choice set `{A, ¬A}`; the flavor fixes which
/// key-bit *value* selects the pass-through function (`0` for XOR, `1`
/// for XNOR), which is how real lockers keep the correct key from being
/// readable off the gate types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockGate {
    /// `w ⊕ k`: key bit 0 passes the wire through.
    Xor,
    /// `¬(w ⊕ k)`: key bit 1 passes the wire through.
    Xnor,
    /// 2:1 MUX over `(pin0, pin1)`: the key bit selects the pin; the
    /// pin carrying the true wire was placed at the correct key bit's
    /// index by the inserter.
    Mux,
}

/// One inserted key gate: the cell instance in the locked netlist and
/// its flavor. Site `i` of [`LockedNetlist::sites`] consumes key bit `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockSite {
    /// The key-gate cell in the locked netlist.
    pub cell: CellId,
    /// Gate flavor (fixes the key-bit semantics).
    pub gate: LockGate,
}

/// Options for the keyed inserter.
#[derive(Debug, Clone, Copy)]
pub struct LockOptions {
    /// Number of XOR/XNOR key gates to insert.
    pub n_xor: usize,
    /// Number of MUX key gates to insert.
    pub n_mux: usize,
    /// Seed for site selection, decoy choice and key material.
    pub seed: u64,
}

impl Default for LockOptions {
    fn default() -> Self {
        LockOptions {
            n_xor: 4,
            n_mux: 2,
            seed: 0x10C4_ED00_0000_0001,
        }
    }
}

/// Why locking a netlist failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The input netlist already contains obfuscated (camouflaged) cells.
    AlreadyObfuscated(String),
    /// The lock library is missing a required key-gate cell.
    MissingKeyCell(&'static str),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::AlreadyObfuscated(cell) => {
                write!(
                    f,
                    "cell {cell} is already obfuscated; lock a standard netlist"
                )
            }
            LockError::MissingKeyCell(name) => {
                write!(f, "lock library has no {name} cell")
            }
        }
    }
}

impl std::error::Error for LockError {}

/// A locked netlist with its correct key and site map.
#[derive(Debug, Clone)]
pub struct LockedNetlist {
    /// The netlist with key gates inserted (key gates are `Camo` cells
    /// indexing the lock library).
    pub netlist: Netlist,
    /// The correct key, one bit per site.
    pub key: Vec<bool>,
    /// The inserted key gates, in insertion (topological) order.
    pub sites: Vec<LockSite>,
    /// How many leading sites bind former select inputs
    /// ([`lock_merged_netlist`]): key bits `0..n_selects` *are* the
    /// select value, so every viable function of a merged circuit stays
    /// one key away. `0` for plain [`lock_netlist`] locking.
    pub n_selects: usize,
}

impl LockedNetlist {
    /// Number of key bits.
    pub fn key_bits(&self) -> usize {
        self.key.len()
    }

    /// The correct key realizing viable function `j` of a merged-circuit
    /// lock: the select-site bits carry `j` (little-endian), every other
    /// bit keeps its correct value.
    ///
    /// # Panics
    ///
    /// Panics if `j` does not fit the select sites.
    pub fn key_for_select(&self, j: usize) -> Vec<bool> {
        assert!(
            self.n_selects == usize::BITS as usize || j >> self.n_selects == 0,
            "select value {j} does not fit {} select sites",
            self.n_selects
        );
        let mut key = self.key.clone();
        for (b, bit) in key.iter_mut().take(self.n_selects).enumerate() {
            *bit = (j >> b) & 1 == 1;
        }
        key
    }

    /// The per-site configuration realized by `key`: what the circuit
    /// computes when that key is loaded. This is the bridge between the
    /// key space and the choice space the attack stack enumerates.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != self.key_bits()`.
    pub fn config_for_key(&self, key: &[bool]) -> HashMap<CellId, TruthTable> {
        assert_eq!(key.len(), self.sites.len(), "key width mismatch");
        let wire = TruthTable::var(0, 1);
        self.sites
            .iter()
            .zip(key)
            .map(|(site, &k)| {
                let f = match site.gate {
                    LockGate::Xor => {
                        if k {
                            wire.not()
                        } else {
                            wire.clone()
                        }
                    }
                    LockGate::Xnor => {
                        if k {
                            wire.clone()
                        } else {
                            wire.not()
                        }
                    }
                    LockGate::Mux => TruthTable::var(usize::from(k), 2),
                };
                (site.cell, f)
            })
            .collect()
    }

    /// The configuration under the correct key (the one that restores
    /// the original function).
    pub fn correct_config(&self) -> HashMap<CellId, TruthTable> {
        self.config_for_key(&self.key)
    }
}

/// Builds the key-gate library: `XKEY` (1 input, choice set `{A, ¬A}`)
/// and `MKEY` (2 inputs, choice set `{pin 0, pin 1}`). Base-cell ids
/// point at the standard cells the key gates masquerade as for area
/// accounting.
pub fn lock_library(lib: &Library) -> CamoLibrary {
    let buf = lib
        .cell_by_kind(CellKind::Buf)
        .expect("standard library has BUF");
    let and2 = lib
        .cell_by_kind(CellKind::And(2))
        .expect("standard library has AND2");
    let wire = TruthTable::var(0, 1);
    let xkey = CamoCell::from_parts(
        buf,
        CellKind::Buf,
        XKEY_NAME,
        1,
        1.5, // an XOR2 footprint in GE, the gate it stands in for
        wire.clone(),
        vec![wire.clone(), wire.not()],
    );
    let mkey = CamoCell::from_parts(
        and2,
        CellKind::And(2),
        MKEY_NAME,
        2,
        1.75, // a MUX2 footprint in GE
        TruthTable::var(0, 2),
        vec![TruthTable::var(0, 2), TruthTable::var(1, 2)],
    );
    CamoLibrary::from_cells(vec![xkey, mkey])
}

fn key_cell(lock: &CamoLibrary, name: &'static str) -> Result<CamoCellId, LockError> {
    lock.iter()
        .find(|(_, c)| c.name() == name)
        .map(|(id, _)| id)
        .ok_or(LockError::MissingKeyCell(name))
}

/// Inserts `opts.n_xor` XOR/XNOR and `opts.n_mux` MUX key gates into a
/// standard-cell netlist, deterministically in `(netlist, opts)`.
///
/// Sites are drawn without replacement from the internal wires (cell
/// outputs) by a seeded Fisher–Yates pass; if the netlist has fewer
/// wires than requested gates, every wire is locked. The netlist is
/// rebuilt in topological order, each locked wire's fanout (later cells
/// and primary outputs) re-pointed at the key gate's output. MUX decoys
/// are drawn from the signals already defined at the insertion point
/// (primary inputs and earlier outputs), which structurally rules out
/// combinational cycles; a MUX site with no available decoy degrades to
/// an XOR/XNOR site.
///
/// # Errors
///
/// [`LockError`] if the input netlist already contains obfuscated cells
/// or the lock library lacks the key-gate cells.
pub fn lock_netlist(
    nl: &Netlist,
    lock: &CamoLibrary,
    opts: &LockOptions,
) -> Result<LockedNetlist, LockError> {
    lock_impl(nl, None, lock, &[], opts)
}

/// Locks a standard-mapped **merged** circuit: every select input is
/// bound through a key gate (a tie-low wire into an `XKEY` site, whose
/// `{0, 1}` choice *is* the select bit), then `opts.n_xor` + `opts.n_mux`
/// ordinary key gates are inserted exactly as [`lock_netlist`] would.
///
/// The result has only the data inputs as primary inputs — the same
/// interface shape camouflage mapping produces — and key bits
/// `0..select_inputs.len()` carry the select value: viable function `j`
/// is realized under [`LockedNetlist::key_for_select`]`(j)`, so a merged
/// circuit's multiple-viable-function property survives locking.
///
/// `select_inputs` are positions into `nl.inputs()` (a merged circuit's
/// [`select_indices`](mvf_netlist::Netlist) as mapped). `lib` supplies
/// the `TIE0` cell the select binders hang off.
///
/// # Errors
///
/// As [`lock_netlist`], plus a missing `TIE0` in the standard library.
///
/// # Panics
///
/// Panics if a select position is out of range of `nl.inputs()`.
pub fn lock_merged_netlist(
    nl: &Netlist,
    lib: &Library,
    lock: &CamoLibrary,
    select_inputs: &[usize],
    opts: &LockOptions,
) -> Result<LockedNetlist, LockError> {
    lock_impl(nl, Some(lib), lock, select_inputs, opts)
}

fn lock_impl(
    nl: &Netlist,
    lib: Option<&Library>,
    lock: &CamoLibrary,
    select_inputs: &[usize],
    opts: &LockOptions,
) -> Result<LockedNetlist, LockError> {
    let xkey = key_cell(lock, XKEY_NAME)?;
    let mkey = key_cell(lock, MKEY_NAME)?;
    for (_, c) in nl.cells() {
        if matches!(c.cell, CellRef::Camo(_)) {
            return Err(LockError::AlreadyObfuscated(c.name.clone()));
        }
    }
    let tie0 = match (select_inputs.is_empty(), lib) {
        (true, _) => None,
        (false, Some(lib)) => Some(
            lib.cell_by_kind(CellKind::Tie0)
                .ok_or(LockError::MissingKeyCell("TIE0"))?,
        ),
        (false, None) => return Err(LockError::MissingKeyCell("TIE0")),
    };
    // A SplitMix64 stream, so key material and site selection are pure
    // functions of the seed.
    let mut rng = opts.seed;
    let mut draw = |bound: usize| -> usize {
        rng = word::splitmix64(rng);
        (rng % bound.max(1) as u64) as usize
    };

    // Seeded Fisher–Yates over the cell indices; the first n_xor picks
    // become XOR/XNOR sites, the next n_mux picks MUX sites.
    let n_cells = nl.n_cells();
    let mut picks: Vec<usize> = (0..n_cells).collect();
    for i in (1..n_cells).rev() {
        picks.swap(i, draw(i + 1));
    }
    let n_xor = opts.n_xor.min(n_cells);
    let n_mux = opts.n_mux.min(n_cells - n_xor);
    let mut flavor_of: HashMap<usize, LockGate> = HashMap::new();
    for &cell in &picks[..n_xor] {
        flavor_of.insert(cell, LockGate::Xor); // flavor finalized at insertion
    }
    for &cell in &picks[n_xor..n_xor + n_mux] {
        flavor_of.insert(cell, LockGate::Mux);
    }

    let select_set: std::collections::HashSet<usize> = select_inputs.iter().copied().collect();
    let mut out = Netlist::new(nl.name());
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    let mut defined: Vec<NetId> = Vec::new(); // decoy pool, new-net ids
    for (p, &pi) in nl.inputs().iter().enumerate() {
        if select_set.contains(&p) {
            continue;
        }
        let new = out.add_input(nl.net_name(pi));
        map.insert(pi, new);
        defined.push(new);
    }
    let mut key = Vec::new();
    let mut sites = Vec::new();
    // Select binders first: key bit `b` is select bit `b`, nominally 0
    // (viable function 0). An XKEY over a tie-low wire realizes exactly
    // {0, 1}, and its Xor key semantics (k=0 passes the 0 through) make
    // the key bit equal the select value with no special casing.
    for (b, &p) in select_inputs.iter().enumerate() {
        let old = nl.inputs()[p];
        let (_, t) = out.add_cell(
            format!("sel_t{b}"),
            CellRef::Std(tie0.expect("checked above")),
            vec![],
        );
        let (c, y) = out.add_cell(format!("sel_k{b}"), CellRef::Camo(xkey), vec![t]);
        map.insert(old, y);
        defined.push(y);
        key.push(false);
        sites.push(LockSite {
            cell: c,
            gate: LockGate::Xor,
        });
    }
    for cid in nl.topo_cells() {
        let inst = nl.cell(cid);
        let inputs: Vec<NetId> = inst.inputs.iter().map(|n| map[n]).collect();
        let (_, w) = out.add_cell(inst.name.clone(), inst.cell, inputs);
        let mut locked = w;
        if let Some(&flavor) = flavor_of.get(&(cid.0 as usize)) {
            let k = draw(2) == 1;
            let site_name = format!("lk{}", sites.len());
            let decoy = (flavor == LockGate::Mux && !defined.is_empty())
                .then(|| defined[draw(defined.len())]);
            let (gate, cell) = match decoy {
                Some(d) => {
                    // Keyed pin swap: the true wire sits at pin `k`, so
                    // the correct key bit selects it.
                    let pins = if k { vec![d, w] } else { vec![w, d] };
                    let (c, y) = out.add_cell(site_name, CellRef::Camo(mkey), pins);
                    locked = y;
                    (LockGate::Mux, c)
                }
                None => {
                    // XOR passes the wire at k=0, XNOR at k=1: pick the
                    // flavor that makes the drawn bit the correct one.
                    let gate = if k { LockGate::Xnor } else { LockGate::Xor };
                    let (c, y) = out.add_cell(site_name, CellRef::Camo(xkey), vec![w]);
                    locked = y;
                    (gate, c)
                }
            };
            key.push(k);
            sites.push(LockSite { cell, gate });
        }
        map.insert(inst.output, locked);
        defined.push(locked);
    }
    for (name, net) in nl.outputs() {
        out.add_output(name.clone(), map[net]);
    }
    Ok(LockedNetlist {
        netlist: out,
        key,
        sites,
        n_selects: select_inputs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_sim::{eval_camo_netlist, eval_netlist};

    fn xor_netlist(lib: &Library) -> Netlist {
        let nand = lib.cell_by_kind(CellKind::Nand(2)).unwrap();
        let mut nl = Netlist::new("xor2");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let (_, ab) = nl.add_cell("u1", nand.into(), vec![a, b]);
        let (_, l) = nl.add_cell("u2", nand.into(), vec![a, ab]);
        let (_, r) = nl.add_cell("u3", nand.into(), vec![b, ab]);
        let (_, y) = nl.add_cell("u4", nand.into(), vec![l, r]);
        nl.add_output("y", y);
        nl
    }

    #[test]
    fn key_gate_choice_sets_are_sorted_and_cover_exactly_their_permutations() {
        // Table-level oracles for what the cells crate computes on words:
        // the choice order and the matcher's answers on every function
        // of a key gate's arity.
        let lib = Library::standard();
        let lock = lock_library(&lib);
        for (_, cell) in lock.iter() {
            let n = cell.n_inputs();
            assert!(
                cell.plausible().windows(2).all(|w| w[0] < w[1]),
                "{}",
                cell.name()
            );
            let perms = mvf_logic::npn::all_permutations(n);
            for w in 0..1u64 << (1 << n) {
                let f = TruthTable::from_word(n, w).unwrap();
                let want = perms
                    .iter()
                    .find(|p| cell.is_plausible(&f.permute(p).unwrap()))
                    .cloned();
                assert_eq!(cell.covers(&[f]), want, "{}: word {w:#x}", cell.name());
            }
        }
    }

    #[test]
    fn site_placement_keeps_its_golden_draws() {
        // A 12-cell ladder of alternating NAND2/NOR2 cells, each fed by
        // the previous output and an earlier net: the sites, flavors and
        // key bits below are the seeded stream's draws, pinned as they
        // have always been.
        let lib = Library::standard();
        let lock = lock_library(&lib);
        let nand = lib.cell_by_kind(CellKind::Nand(2)).unwrap();
        let nor = lib.cell_by_kind(CellKind::Nor(2)).unwrap();
        let mut nl = Netlist::new("ladder");
        let mut nets: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("x{i}"))).collect();
        for i in 0..12usize {
            let cell = if i % 2 == 0 { nand } else { nor };
            let a = nets[nets.len() - 1];
            let b = nets[nets.len() - 2 - i % 3];
            let (_, y) = nl.add_cell(format!("u{i}"), cell.into(), vec![a, b]);
            nets.push(y);
        }
        nl.add_output("y", nets[nets.len() - 1]);
        let opts = LockOptions {
            n_xor: 3,
            n_mux: 2,
            seed: 0x5EED,
        };
        let locked = lock_netlist(&nl, &lock, &opts).unwrap();
        let sites: Vec<(u32, LockGate)> = locked.sites.iter().map(|s| (s.cell.0, s.gate)).collect();
        assert_eq!(
            sites,
            [
                (2, LockGate::Xor),
                (4, LockGate::Xnor),
                (6, LockGate::Mux),
                (14, LockGate::Xor),
                (16, LockGate::Mux)
            ]
        );
        assert_eq!(locked.key, [false, true, false, false, true]);
    }

    #[test]
    fn lock_library_choice_sets() {
        let lib = Library::standard();
        let lock = lock_library(&lib);
        let xkey = lock.cell_by_name(XKEY_NAME).unwrap();
        assert_eq!(xkey.plausible().len(), 2);
        assert!(xkey.is_plausible(&TruthTable::var(0, 1)));
        assert!(xkey.is_plausible(&TruthTable::var(0, 1).not()));
        let mkey = lock.cell_by_name(MKEY_NAME).unwrap();
        assert_eq!(mkey.plausible().len(), 2);
        assert!(mkey.is_plausible(&TruthTable::var(0, 2)));
        assert!(mkey.is_plausible(&TruthTable::var(1, 2)));
    }

    #[test]
    fn inserter_is_deterministic_and_sized() {
        let lib = Library::standard();
        let lock = lock_library(&lib);
        let nl = xor_netlist(&lib);
        let opts = LockOptions {
            n_xor: 2,
            n_mux: 1,
            seed: 42,
        };
        let a = lock_netlist(&nl, &lock, &opts).unwrap();
        let b = lock_netlist(&nl, &lock, &opts).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.sites, b.sites);
        assert_eq!(a.key_bits(), 3);
        assert_eq!(a.netlist.n_cells(), nl.n_cells() + 3);
        let other = lock_netlist(&nl, &lock, &LockOptions { seed: 43, ..opts }).unwrap();
        assert!(
            other.key != a.key || {
                use mvf_netlist::fingerprint::fingerprint_netlist;
                fingerprint_netlist(&other.netlist) != fingerprint_netlist(&a.netlist)
            },
            "different seeds should pick different sites or keys"
        );
    }

    #[test]
    fn correct_key_restores_the_function_wrong_keys_may_not() {
        let lib = Library::standard();
        let lock = lock_library(&lib);
        let nl = xor_netlist(&lib);
        let locked = lock_netlist(
            &nl,
            &lock,
            &LockOptions {
                n_xor: 3,
                n_mux: 1,
                seed: 7,
            },
        )
        .unwrap();
        locked
            .netlist
            .check_with_camo(&lib, Some(&lock))
            .expect("locked netlist is well-formed");
        let want = eval_netlist(&nl, &lib);
        let got = eval_camo_netlist(&locked.netlist, &lib, &lock, &locked.correct_config())
            .expect("correct config is plausible");
        assert_eq!(got, want, "correct key must restore the function");
        // Flip each key bit and check at least one flip changes the
        // function (decoy muxes can coincide on some wires).
        let mut any_wrong_differs = false;
        for flip in 0..locked.key_bits() {
            let mut k = locked.key.clone();
            k[flip] = !k[flip];
            let cfg = locked.config_for_key(&k);
            let got = eval_camo_netlist(&locked.netlist, &lib, &lock, &cfg).unwrap();
            if got != want {
                any_wrong_differs = true;
            }
        }
        assert!(any_wrong_differs, "a single-bit key flip never mattered");
    }

    /// A hand-merged two-function circuit: `sel` picks between `a·b` and
    /// `a+b` through a gate-level 2:1 mux, mimicking what the flow's
    /// standard mapping of a merged circuit looks like.
    fn merged_netlist(lib: &Library) -> Netlist {
        let inv = lib.cell_by_kind(CellKind::Inv).unwrap();
        let and2 = lib.cell_by_kind(CellKind::And(2)).unwrap();
        let or2 = lib.cell_by_kind(CellKind::Or(2)).unwrap();
        let mut nl = Netlist::new("merged2");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let sel = nl.add_input("sel0");
        let (_, f0) = nl.add_cell("f0", and2.into(), vec![a, b]);
        let (_, f1) = nl.add_cell("f1", or2.into(), vec![a, b]);
        let (_, ns) = nl.add_cell("ns", inv.into(), vec![sel]);
        let (_, t0) = nl.add_cell("t0", and2.into(), vec![f0, ns]);
        let (_, t1) = nl.add_cell("t1", and2.into(), vec![f1, sel]);
        let (_, y) = nl.add_cell("y", or2.into(), vec![t0, t1]);
        nl.add_output("y", y);
        nl
    }

    #[test]
    fn merged_lock_binds_selects_and_keeps_every_function_reachable() {
        let lib = Library::standard();
        let lock = lock_library(&lib);
        let nl = merged_netlist(&lib);
        let opts = LockOptions {
            n_xor: 2,
            n_mux: 1,
            seed: 5,
        };
        let locked = lock_merged_netlist(&nl, &lib, &lock, &[2], &opts).unwrap();
        let again = lock_merged_netlist(&nl, &lib, &lock, &[2], &opts).unwrap();
        assert_eq!(locked.key, again.key);
        assert_eq!(locked.sites, again.sites);
        // The select input is gone from the interface; its value moved
        // into key bit 0.
        assert_eq!(locked.netlist.inputs().len(), 2);
        assert_eq!(locked.n_selects, 1);
        assert_eq!(locked.key_bits(), 1 + 3);
        assert_eq!(locked.sites[0].gate, LockGate::Xor);
        assert!(!locked.key[0], "nominal key selects function 0");
        locked
            .netlist
            .check_with_camo(&lib, Some(&lock))
            .expect("locked merged netlist is well-formed");
        // Every viable function stays reachable under its select key —
        // the multiple-viable-function property survives locking.
        let expect = [CellKind::And(2).function(), CellKind::Or(2).function()];
        for (j, want) in expect.iter().enumerate() {
            let cfg = locked.config_for_key(&locked.key_for_select(j));
            let got = eval_camo_netlist(&locked.netlist, &lib, &lock, &cfg)
                .expect("select keys are plausible");
            assert_eq!(&got, &vec![want.clone()], "function {j} under its key");
        }
    }

    #[test]
    fn locking_an_obfuscated_netlist_is_rejected() {
        let lib = Library::standard();
        let lock = lock_library(&lib);
        let nl = xor_netlist(&lib);
        let once = lock_netlist(&nl, &lock, &LockOptions::default()).unwrap();
        assert!(matches!(
            lock_netlist(&once.netlist, &lock, &LockOptions::default()),
            Err(LockError::AlreadyObfuscated(_))
        ));
    }
}
