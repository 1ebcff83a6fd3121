use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use mvf_cells::{CamoCellId, CamoLibrary, LibCellId, Library};

/// Identifier of a net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a cell instance within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Reference to a library cell: either a standard cell or a camouflaged
/// look-alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellRef {
    /// A standard cell from a [`Library`].
    Std(LibCellId),
    /// A camouflaged cell from a [`CamoLibrary`].
    Camo(CamoCellId),
}

impl From<LibCellId> for CellRef {
    fn from(id: LibCellId) -> Self {
        CellRef::Std(id)
    }
}

impl From<CamoCellId> for CellRef {
    fn from(id: CamoCellId) -> Self {
        CellRef::Camo(id)
    }
}

/// One cell instance: a named, single-output gate.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Instance name (unique within the netlist by convention).
    pub name: String,
    /// The library cell it instantiates.
    pub cell: CellRef,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// The driven output net.
    pub output: NetId,
}

#[derive(Debug, Clone)]
enum Driver {
    /// Reserved for nets created without a driver (none are today, but
    /// the checker guards against them for future constructors).
    #[allow(dead_code)]
    None,
    Input(usize),
    Cell(CellId),
}

#[derive(Debug, Clone)]
struct Net {
    name: String,
    driver: Driver,
}

/// Errors reported by [`Netlist::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A net has no driver but is used.
    UndrivenNet(String),
    /// A cell's input count does not match its library cell.
    ArityMismatch {
        /// Instance name.
        cell: String,
        /// Expected pin count.
        expected: usize,
        /// Provided pin count.
        got: usize,
    },
    /// The cell graph contains a combinational cycle.
    CombinationalCycle,
    /// A net is driven more than once.
    MultipleDrivers(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UndrivenNet(n) => write!(f, "net {n} is used but never driven"),
            NetlistError::ArityMismatch {
                cell,
                expected,
                got,
            } => {
                write!(f, "cell {cell} expects {expected} inputs, got {got}")
            }
            NetlistError::CombinationalCycle => write!(f, "combinational cycle detected"),
            NetlistError::MultipleDrivers(n) => write!(f, "net {n} has multiple drivers"),
        }
    }
}

impl Error for NetlistError {}

/// A flat, single-output-per-cell structural netlist.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    cells: Vec<Instance>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nets: Vec::new(),
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input and returns its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.into(),
            driver: Driver::Input(self.inputs.len()),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a cell instance driving a fresh net; returns `(cell, output
    /// net)`.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        cell: CellRef,
        inputs: Vec<NetId>,
    ) -> (CellId, NetId) {
        let name = name.into();
        let out = NetId(self.nets.len() as u32);
        let cid = CellId(self.cells.len() as u32);
        self.nets.push(Net {
            name: format!("{name}_y"),
            driver: Driver::Cell(cid),
        });
        self.cells.push(Instance {
            name,
            cell,
            inputs,
            output: out,
        });
        (cid, out)
    }

    /// Registers a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)` pairs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Number of cell instances.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn n_nets(&self) -> usize {
        self.nets.len()
    }

    /// The instance with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cell(&self, id: CellId) -> &Instance {
        &self.cells[id.0 as usize]
    }

    /// Iterates over `(id, instance)` pairs in insertion order.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Instance)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.0 as usize].name
    }

    /// Renames a net.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_net_name(&mut self, id: NetId, name: impl Into<String>) {
        self.nets[id.0 as usize].name = name.into();
    }

    /// The cell driving a net, if any.
    pub fn driver(&self, id: NetId) -> Option<CellId> {
        match self.nets[id.0 as usize].driver {
            Driver::Cell(c) => Some(c),
            _ => None,
        }
    }

    /// `true` iff the net is a primary input.
    pub fn is_input(&self, id: NetId) -> bool {
        matches!(self.nets[id.0 as usize].driver, Driver::Input(_))
    }

    /// If the net is a primary input, its input index.
    pub fn input_index(&self, id: NetId) -> Option<usize> {
        match self.nets[id.0 as usize].driver {
            Driver::Input(i) => Some(i),
            _ => None,
        }
    }

    /// Number of fanout references of every net (cell inputs plus primary
    /// outputs), indexed by net id.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nets.len()];
        for c in &self.cells {
            for &n in &c.inputs {
                counts[n.0 as usize] += 1;
            }
        }
        for (_, n) in &self.outputs {
            counts[n.0 as usize] += 1;
        }
        counts
    }

    /// Cell ids in topological order (every cell after its fanin drivers).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle; run
    /// [`Netlist::check`] first for a recoverable error.
    pub fn topo_cells(&self) -> Vec<CellId> {
        self.try_topo_cells().expect("combinational cycle")
    }

    /// The cells in the transitive fan-in of `roots`, in the order of
    /// [`Netlist::topo_cells`].
    ///
    /// # Panics
    ///
    /// Panics if a root is out of range or the netlist has a
    /// combinational cycle.
    pub fn cone_cells(&self, roots: &[NetId]) -> Vec<CellId> {
        let mut in_cone = vec![false; self.cells.len()];
        let mut stack = roots.to_vec();
        while let Some(net) = stack.pop() {
            if let Some(c) = self.driver(net) {
                if !std::mem::replace(&mut in_cone[c.0 as usize], true) {
                    stack.extend_from_slice(&self.cells[c.0 as usize].inputs);
                }
            }
        }
        let mut order = self.topo_cells();
        order.retain(|c| in_cone[c.0 as usize]);
        order
    }

    fn try_topo_cells(&self) -> Result<Vec<CellId>, NetlistError> {
        let mut indeg = vec![0usize; self.cells.len()];
        let mut uses: HashMap<CellId, Vec<CellId>> = HashMap::new();
        for (id, c) in self.cells() {
            for &n in &c.inputs {
                if let Some(d) = self.driver(n) {
                    indeg[id.0 as usize] += 1;
                    uses.entry(d).or_default().push(id);
                }
            }
        }
        let mut ready: Vec<CellId> = (0..self.cells.len() as u32)
            .map(CellId)
            .filter(|c| indeg[c.0 as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.cells.len());
        while let Some(c) = ready.pop() {
            order.push(c);
            if let Some(users) = uses.get(&c) {
                for &u in users {
                    indeg[u.0 as usize] -= 1;
                    if indeg[u.0 as usize] == 0 {
                        ready.push(u);
                    }
                }
            }
        }
        if order.len() != self.cells.len() {
            return Err(NetlistError::CombinationalCycle);
        }
        Ok(order)
    }

    /// Total area in gate equivalents. `camo` is required when the netlist
    /// instantiates camouflaged cells.
    ///
    /// # Panics
    ///
    /// Panics if a camouflaged cell is present and `camo` is `None`.
    pub fn area_ge(&self, lib: &Library, camo: Option<&CamoLibrary>) -> f64 {
        self.cells
            .iter()
            .map(|c| match c.cell {
                CellRef::Std(id) => lib.cell(id).area_ge(),
                CellRef::Camo(id) => camo
                    .expect("camo library required for camouflaged netlist")
                    .cell(id)
                    .area_ge(),
            })
            .sum()
    }

    /// Per-cell-name instance histogram, useful for reports.
    pub fn cell_histogram(
        &self,
        lib: &Library,
        camo: Option<&CamoLibrary>,
    ) -> Vec<(String, usize)> {
        let mut map: HashMap<String, usize> = HashMap::new();
        for c in &self.cells {
            let name = match c.cell {
                CellRef::Std(id) => lib.cell(id).name().to_string(),
                CellRef::Camo(id) => format!(
                    "camo-{}",
                    camo.expect("camo library required").cell(id).name()
                ),
            };
            *map.entry(name).or_default() += 1;
        }
        let mut v: Vec<(String, usize)> = map.into_iter().collect();
        v.sort();
        v
    }

    /// Structural sanity checks: arities match the libraries, every used
    /// net is driven, no combinational cycles.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check(&self, lib: &Library) -> Result<(), NetlistError> {
        self.check_with_camo(lib, None)
    }

    /// [`Netlist::check`] for netlists that may contain camouflaged cells.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_with_camo(
        &self,
        lib: &Library,
        camo: Option<&CamoLibrary>,
    ) -> Result<(), NetlistError> {
        for c in &self.cells {
            let expected = match c.cell {
                CellRef::Std(id) => lib.cell(id).n_inputs(),
                CellRef::Camo(id) => match camo {
                    Some(camo) => camo.cell(id).n_inputs(),
                    None => continue,
                },
            };
            if c.inputs.len() != expected {
                return Err(NetlistError::ArityMismatch {
                    cell: c.name.clone(),
                    expected,
                    got: c.inputs.len(),
                });
            }
        }
        for c in &self.cells {
            for &n in &c.inputs {
                if matches!(self.nets[n.0 as usize].driver, Driver::None) {
                    return Err(NetlistError::UndrivenNet(self.net_name(n).to_string()));
                }
            }
        }
        for (_, n) in &self.outputs {
            if matches!(self.nets[n.0 as usize].driver, Driver::None) {
                return Err(NetlistError::UndrivenNet(self.net_name(*n).to_string()));
            }
        }
        self.try_topo_cells().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvf_cells::CellKind;

    fn lib() -> Library {
        Library::standard()
    }

    fn xor_netlist(lib: &Library) -> Netlist {
        // y = (a NAND (a NAND b)) NAND (b NAND (a NAND b)) — XOR from NAND2.
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
    fn construction_and_queries() {
        let lib = lib();
        let nl = xor_netlist(&lib);
        assert_eq!(nl.n_cells(), 4);
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 1);
        assert!(nl.is_input(nl.inputs()[0]));
        assert_eq!(nl.input_index(nl.inputs()[1]), Some(1));
        assert!(nl.check(&lib).is_ok());
        assert_eq!(nl.area_ge(&lib, None), 4.0);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let lib = lib();
        let nl = xor_netlist(&lib);
        let order = nl.topo_cells();
        let pos: HashMap<CellId, usize> = order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        for (id, c) in nl.cells() {
            for &n in &c.inputs {
                if let Some(d) = nl.driver(n) {
                    assert!(pos[&d] < pos[&id], "driver after user");
                }
            }
        }
    }

    #[test]
    fn fanout_counts_match_structure() {
        let lib = lib();
        let nl = xor_netlist(&lib);
        let counts = nl.fanout_counts();
        let a = nl.inputs()[0];
        assert_eq!(counts[a.0 as usize], 2); // u1 and u2
        let ab = nl.cell(CellId(0)).output;
        assert_eq!(counts[ab.0 as usize], 2); // u2 and u3
        let y = nl.outputs()[0].1;
        assert_eq!(counts[y.0 as usize], 1); // primary output only
    }

    #[test]
    fn check_catches_arity_mismatch() {
        let lib = lib();
        let nand = lib.cell_by_kind(CellKind::Nand(2)).unwrap();
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let (_, y) = nl.add_cell("u1", nand.into(), vec![a]); // 1 input to a NAND2
        nl.add_output("y", y);
        assert!(matches!(
            nl.check(&lib),
            Err(NetlistError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn check_catches_cycles() {
        let lib = lib();
        let inv = lib.cell_by_kind(CellKind::Inv).unwrap();
        let mut nl = Netlist::new("loop");
        // Ring of two inverters feeding each other.
        let a = nl.add_input("a");
        let (c1, y1) = nl.add_cell("u1", inv.into(), vec![a]);
        let (_, y2) = nl.add_cell("u2", inv.into(), vec![y1]);
        // Rewire u1's input to u2's output to create the cycle.
        nl.cells[c1.0 as usize].inputs[0] = y2;
        nl.add_output("y", y1);
        assert_eq!(nl.check(&lib), Err(NetlistError::CombinationalCycle));
    }

    #[test]
    fn histogram_counts_cells() {
        let lib = lib();
        let nl = xor_netlist(&lib);
        assert_eq!(
            nl.cell_histogram(&lib, None),
            vec![("NAND2".to_string(), 4)]
        );
    }

    #[test]
    fn tie_cells_have_no_inputs() {
        let lib = lib();
        let tie = lib.cell_by_kind(CellKind::Tie1).unwrap();
        let mut nl = Netlist::new("const");
        let (_, one) = nl.add_cell("t1", tie.into(), vec![]);
        nl.add_output("one", one);
        assert!(nl.check(&lib).is_ok());
    }
}
