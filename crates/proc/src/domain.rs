//! Processor power domains (Table 1 of the paper).

use pdn_units::{ApplicationRatio, Hertz};
use std::fmt;

/// The six power domains of the modelled client processor (Table 1).
///
/// The two CPU cores share one clock domain but have separate rails in the
/// IVR and LDO PDNs (Fig. 1), so they are modelled as distinct domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DomainKind {
    /// CPU core 0 (0.8–4 GHz clock domain shared with core 1).
    Core0,
    /// CPU core 1.
    Core1,
    /// Last-level cache; sized/clocked proportionally to cores and graphics.
    Llc,
    /// Graphics engines (0.1–1.2 GHz).
    Gfx,
    /// System agent: memory controller, display controller, IO fabric.
    Sa,
    /// Processor IOs (DDR IO, display IO) at fixed frequencies.
    Io,
}

impl DomainKind {
    /// Number of domains (the length of [`Self::ALL`]).
    pub(crate) const COUNT: usize = 6;

    /// All domains in canonical order.
    pub const ALL: [DomainKind; Self::COUNT] = [
        DomainKind::Core0,
        DomainKind::Core1,
        DomainKind::Llc,
        DomainKind::Gfx,
        DomainKind::Sa,
        DomainKind::Io,
    ];

    /// The domain's dense index: its position in [`Self::ALL`], which is
    /// also its enum discriminant and its `Ord` rank.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Domains with a wide power-consumption range (CPU cores, LLC,
    /// graphics). FlexWatts allocates its hybrid PDN to exactly these
    /// domains (§6).
    pub const WIDE_RANGE: [DomainKind; 4] =
        [DomainKind::Core0, DomainKind::Core1, DomainKind::Llc, DomainKind::Gfx];

    /// Whether the domain has a wide power range (hybrid-PDN candidates).
    pub fn is_wide_range(self) -> bool {
        Self::WIDE_RANGE.contains(&self)
    }

    /// Short rail-style name used in reports (matches Fig. 1 labels).
    pub fn rail_name(self) -> &'static str {
        match self {
            DomainKind::Core0 => "Core0",
            DomainKind::Core1 => "Core1",
            DomainKind::Llc => "LLC",
            DomainKind::Gfx => "GFX",
            DomainKind::Sa => "SA",
            DomainKind::Io => "IO",
        }
    }
}

impl fmt::Display for DomainKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.rail_name())
    }
}

/// A dense map from [`DomainKind`] to `T`, stored as a fixed-size array
/// indexed by [`DomainKind::index`].
///
/// This is the hot-path replacement for `BTreeMap<DomainKind, T>`:
/// lookups are a bounds-check-free array index instead of a tree walk,
/// the whole table lives inline (no heap allocation per instance), and
/// iteration follows [`DomainKind::ALL`] — the same order a `BTreeMap`
/// yields, since `DomainKind`'s derived `Ord` follows declaration order.
/// Floating-point reductions over a table are therefore bit-identical to
/// the same reductions over the map it replaces.
///
/// # Examples
///
/// ```
/// use pdn_proc::{DomainKind, DomainTable};
///
/// let mut powered = DomainTable::filled(false);
/// powered.set(DomainKind::Core0, true);
/// assert!(*powered.get(DomainKind::Core0));
/// assert_eq!(powered.values().filter(|&&p| p).count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainTable<T> {
    slots: [T; DomainKind::COUNT],
}

impl<T> DomainTable<T> {
    /// Builds a table from per-domain slots given in canonical
    /// ([`DomainKind::ALL`]) order.
    pub const fn new(slots: [T; DomainKind::COUNT]) -> Self {
        Self { slots }
    }

    /// Builds a table by evaluating `f` once per domain, in canonical
    /// order.
    pub fn from_fn(f: impl FnMut(DomainKind) -> T) -> Self {
        Self { slots: DomainKind::ALL.map(f) }
    }

    /// The value stored for a domain.
    pub fn get(&self, kind: DomainKind) -> &T {
        &self.slots[kind.index()]
    }

    /// Mutable access to the value stored for a domain.
    pub(crate) fn get_mut(&mut self, kind: DomainKind) -> &mut T {
        &mut self.slots[kind.index()]
    }

    /// Replaces the value stored for a domain.
    pub fn set(&mut self, kind: DomainKind, value: T) {
        self.slots[kind.index()] = value;
    }

    /// Iterates `(kind, value)` pairs in canonical domain order.
    pub fn iter(&self) -> impl Iterator<Item = (DomainKind, &T)> {
        DomainKind::ALL.into_iter().zip(self.slots.iter())
    }

    /// Iterates the values in canonical domain order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter()
    }
}

impl<T: Copy> DomainTable<T> {
    /// A table with every slot set to `fill`.
    pub const fn filled(fill: T) -> Self {
        Self { slots: [fill; DomainKind::COUNT] }
    }
}

impl<T> std::ops::Index<DomainKind> for DomainTable<T> {
    type Output = T;

    fn index(&self, kind: DomainKind) -> &T {
        self.get(kind)
    }
}

impl<T> std::ops::IndexMut<DomainKind> for DomainTable<T> {
    fn index_mut(&mut self, kind: DomainKind) -> &mut T {
        self.get_mut(kind)
    }
}

/// Runtime state of one domain: clock, activity, and whether it is powered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainState {
    /// Operating clock frequency (ignored when `powered` is false).
    pub(crate) frequency: Hertz,
    /// Activity factor relative to the domain's power virus (AR, §2.4).
    pub(crate) activity: ApplicationRatio,
    /// Whether the domain is powered (false = power-gated / idle).
    pub(crate) powered: bool,
}

impl DomainState {
    /// An active domain at `frequency` with activity `activity`.
    pub fn active(frequency: Hertz, activity: ApplicationRatio) -> Self {
        Self { frequency, activity, powered: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_domains() {
        let mut all: Vec<DomainKind> = DomainKind::WIDE_RANGE.to_vec();
        all.extend([DomainKind::Sa, DomainKind::Io]);
        all.sort();
        let mut expected = DomainKind::ALL.to_vec();
        expected.sort();
        assert_eq!(all, expected);
    }

    #[test]
    fn display_matches_fig1_labels() {
        assert_eq!(DomainKind::Gfx.to_string(), "GFX");
        assert_eq!(DomainKind::Llc.to_string(), "LLC");
    }

    #[test]
    fn index_matches_position_in_all() {
        for (i, k) in DomainKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn table_iteration_matches_btreemap_order() {
        use std::collections::BTreeMap;
        let table = DomainTable::from_fn(|k| k.index() * 10);
        let map: BTreeMap<_, _> =
            DomainKind::ALL.into_iter().map(|k| (k, k.index() * 10)).collect();
        let from_table: Vec<_> = table.iter().map(|(k, &v)| (k, v)).collect();
        let from_map: Vec<_> = map.into_iter().collect();
        assert_eq!(from_table, from_map);
    }

    #[test]
    fn table_get_set_and_index() {
        let mut t = DomainTable::filled(0_u32);
        t.set(DomainKind::Gfx, 7);
        t[DomainKind::Io] = 9;
        assert_eq!(*t.get(DomainKind::Gfx), 7);
        assert_eq!(t[DomainKind::Io], 9);
        assert_eq!(t.values().sum::<u32>(), 16);
    }
}
