//! Protocol taxonomy.

use std::fmt;

/// The memory consistency model a protocol configuration provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsistencyModel {
    /// Sequential consistency: the core issues at most one global memory
    /// operation per warp at a time ("naïve SC" of Singh et al.).
    SequentialConsistency,
    /// Weak ordering: loads and stores from a warp overlap freely; FENCE
    /// instructions restore ordering.
    WeakOrdering,
}

/// Every protocol configuration evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Directory MESI adapted to write-through L1s — the paper's baseline.
    Mesi,
    /// Directory MESI with *write-back* L1s (M state, recalls with data):
    /// the CPU-style configuration the paper argues against for GPUs
    /// ("a write-back policy brings infrequently written data into the
    /// L1 only to write it back soon afterwards", Section I).
    MesiWb,
    /// TC-Strong: physical-time leases; stores stall at L2 until all
    /// leases expire (Singh et al., HPCA 2013). Supports SC.
    TcStrong,
    /// TC-Weak: stores complete eagerly with a GWCT; fences stall.
    /// Cannot support SC (write atomicity is relaxed).
    TcWeak,
    /// RCC with a single logical view per core — sequentially consistent.
    RccSc,
    /// RCC-WO: split read/write logical views, joined at fences
    /// (Section III-F). Weakly ordered.
    RccWo,
    /// SC with instantaneous read/write permissions — the limit study of
    /// Fig. 1d. A performance idealization, not a real protocol.
    IdealSc,
}

impl ProtocolKind {
    /// All protocol kinds, in the order figures present them.
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::Mesi,
        ProtocolKind::MesiWb,
        ProtocolKind::TcStrong,
        ProtocolKind::TcWeak,
        ProtocolKind::RccSc,
        ProtocolKind::RccWo,
        ProtocolKind::IdealSc,
    ];

    /// Consistency model this configuration provides to software.
    pub fn consistency(self) -> ConsistencyModel {
        match self {
            ProtocolKind::Mesi
            | ProtocolKind::MesiWb
            | ProtocolKind::TcStrong
            | ProtocolKind::RccSc
            | ProtocolKind::IdealSc => ConsistencyModel::SequentialConsistency,
            ProtocolKind::TcWeak | ProtocolKind::RccWo => ConsistencyModel::WeakOrdering,
        }
    }

    /// Whether executions must satisfy the full SC scoreboard check.
    pub fn supports_sc(self) -> bool {
        self.consistency() == ConsistencyModel::SequentialConsistency
            && self != ProtocolKind::IdealSc
    }

    /// Virtual networks needed for deadlock freedom (Table III: 5 for
    /// MESI, 2 otherwise).
    pub fn num_vcs(self) -> usize {
        match self {
            ProtocolKind::Mesi | ProtocolKind::MesiWb => 5,
            _ => 2,
        }
    }

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Mesi => "MESI",
            ProtocolKind::MesiWb => "MESI-WB",
            ProtocolKind::TcStrong => "TCS",
            ProtocolKind::TcWeak => "TCW",
            ProtocolKind::RccSc => "RCC-SC",
            ProtocolKind::RccWo => "RCC-WO",
            ProtocolKind::IdealSc => "SC-IDEAL",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds the protocol a [`ProtocolKind`] names for the machine `cfg`
/// (a `&GpuConfig`) and evaluates `body` with `p` bound to a reference
/// to it. This is the workspace's one kind-to-protocol dispatch point.
/// It is a macro because `body` is usually a call to a function generic
/// over [`Protocol`](crate::protocol::Protocol), and a closure cannot be
/// generic over its argument type.
///
/// ```
/// use rcc_common::GpuConfig;
/// use rcc_core::{protocol::Protocol, with_protocol, ProtocolKind};
///
/// let cfg = GpuConfig::small();
/// for kind in ProtocolKind::ALL {
///     assert_eq!(with_protocol!(kind, &cfg, |p| p.kind()), kind);
/// }
/// ```
#[macro_export]
macro_rules! with_protocol {
    ($kind:expr, $cfg:expr, |$p:ident| $body:expr) => {{
        let cfg = $cfg;
        match $kind {
            $crate::ProtocolKind::Mesi => {
                let $p = &$crate::mesi::MesiProtocol::new(cfg);
                $body
            }
            $crate::ProtocolKind::MesiWb => {
                let $p = &$crate::mesi::MesiWbProtocol::new(cfg);
                $body
            }
            $crate::ProtocolKind::TcStrong => {
                let $p = &$crate::tc::TcProtocol::strong(cfg);
                $body
            }
            $crate::ProtocolKind::TcWeak => {
                let $p = &$crate::tc::TcProtocol::weak(cfg);
                $body
            }
            $crate::ProtocolKind::RccSc => {
                let $p = &$crate::rcc::RccProtocol::sequential(cfg);
                $body
            }
            $crate::ProtocolKind::RccWo => {
                let $p = &$crate::rcc::RccProtocol::weakly_ordered(cfg);
                $body
            }
            $crate::ProtocolKind::IdealSc => {
                let $p = &$crate::ideal::IdealProtocol::new(cfg);
                $body
            }
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_capability_matrix() {
        // Table I of the paper: SC support and stall-free store permissions.
        assert!(ProtocolKind::Mesi.supports_sc());
        assert!(ProtocolKind::TcStrong.supports_sc());
        assert!(!ProtocolKind::TcWeak.supports_sc());
        assert!(ProtocolKind::RccSc.supports_sc());
        assert!(!ProtocolKind::RccWo.supports_sc());
    }

    #[test]
    fn vc_counts_match_table_iii() {
        assert_eq!(ProtocolKind::Mesi.num_vcs(), 5);
        for k in [
            ProtocolKind::TcStrong,
            ProtocolKind::TcWeak,
            ProtocolKind::RccSc,
            ProtocolKind::RccWo,
        ] {
            assert_eq!(k.num_vcs(), 2);
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            ProtocolKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ProtocolKind::ALL.len());
    }
}
