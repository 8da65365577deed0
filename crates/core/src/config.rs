//! Cluster configuration space (§IV-B).
//!
//! A *configuration* fixes, for every node type: how many nodes participate
//! (`n_t`), how many cores each of those nodes enables (`c_t`), and the
//! common core clock frequency (`f_t`). All nodes of a type are identical —
//! the paper distributes a type's share equally among them.
//!
//! The space enumerated here reproduces the paper's count exactly
//! (footnote 2 of §IV-B): with 10 ARM (5 frequencies × 4 core counts) and
//! 10 AMD nodes (3 × 6), there are `10·5·4·10·3·6 = 36 000` heterogeneous
//! mixes, plus `200` ARM-only and `180` AMD-only homogeneous configurations:
//! **36 380** in total. Generalized to `k` node types, the space is the sum
//! over all non-empty subsets `S` of types of `Π_{t∈S} n_t·|f_t|·|c_t|`.

use serde::{Deserialize, Serialize};

use crate::dvfs::OppLadder;
use crate::error::{Error, Result};
use crate::profile::WorkloadModel;
use crate::types::{Frequency, Platform};

/// Per-type knobs of one configuration: node count, active cores per node,
/// and core clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Number of nodes of this type that participate (`n_t ≥ 1` when the
    /// type is used at all).
    pub nodes: u32,
    /// Cores enabled per node (`1 ..= platform.cores`).
    pub cores: u32,
    /// Core clock frequency (one of the platform's P-states).
    pub freq: Frequency,
}

impl NodeConfig {
    /// Construct a per-type configuration.
    #[must_use]
    pub fn new(nodes: u32, cores: u32, freq: Frequency) -> Self {
        Self { nodes, cores, freq }
    }

    /// All nodes at all cores and maximum frequency.
    #[must_use]
    pub fn maxed(platform: &Platform, nodes: u32) -> Self {
        Self {
            nodes,
            cores: platform.cores,
            freq: platform.fmax(),
        }
    }
}

/// One point of the whole-cluster configuration space: an optional
/// [`NodeConfig`] per node type (in the same order as the platform list the
/// space was built from). `None` means the type is unused (its nodes are
/// idle or switched off, depending on the analysis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterPoint {
    /// Per-type settings, `None` for unused types.
    pub per_type: Vec<Option<NodeConfig>>,
}

impl ClusterPoint {
    /// Number of node types actually used.
    #[must_use]
    pub fn types_used(&self) -> usize {
        self.per_type.iter().flatten().count()
    }

    /// True when at most one node type is used.
    #[must_use]
    pub fn is_homogeneous(&self) -> bool {
        self.types_used() <= 1
    }

    /// Total number of nodes deployed.
    #[must_use]
    pub fn total_nodes(&self) -> u32 {
        self.per_type.iter().flatten().map(|c| c.nodes).sum()
    }

    /// Compact human-readable label, e.g. `ARM 8(4c@1.40 GHz) + AMD 1(6c@2.10 GHz)`.
    #[must_use]
    pub fn label(&self, platforms: &[Platform]) -> String {
        let mut parts = Vec::new();
        for (p, cfg) in platforms.iter().zip(&self.per_type) {
            if let Some(c) = cfg {
                parts.push(format!("{} {}({}c@{})", p.name, c.nodes, c.cores, c.freq));
            }
        }
        if parts.is_empty() {
            "empty".to_owned()
        } else {
            parts.join(" + ")
        }
    }
}

/// One deployment option of a node type: its knobs and, when the type
/// sweeps a DVFS ladder, the OPP index.
pub type TypeOption = (NodeConfig, Option<usize>);

/// Bounds for one node type inside a [`ConfigSpace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeBounds {
    /// The platform.
    pub platform: Platform,
    /// Maximum number of nodes of this type available (`n_t^max`).
    pub max_nodes: u32,
}

impl TypeBounds {
    /// Number of per-type choices when the type participates:
    /// `n · |f| · |c|`.
    #[must_use]
    pub fn option_count(&self) -> u64 {
        u64::from(self.max_nodes)
            * self.platform.freqs.len() as u64
            * u64::from(self.platform.cores)
    }

    /// Every deployment option of this type, with its OPP index when
    /// `ladder` is given. The order is fixed — nodes outermost, then the
    /// frequency axis, then cores — and shared by every path that walks a
    /// space ([`ConfigSpace::iter`], [`crate::sweep::sweep_space`] and the
    /// [`crate::rate_table::RateTable`] flat indexing), so an option index
    /// means the same configuration everywhere. The frequency axis is the
    /// ladder's OPPs at their effective frequencies, or the platform
    /// P-states (OPP `None`) without a ladder.
    #[must_use]
    pub fn options(&self, ladder: Option<&OppLadder>) -> Vec<TypeOption> {
        let freqs: Vec<(Frequency, Option<usize>)> = match ladder {
            Some(l) => (0..l.len())
                .map(|j| (l.effective_freq(j), Some(j)))
                .collect(),
            None => self.platform.freqs.iter().map(|&f| (f, None)).collect(),
        };
        let mut out = Vec::with_capacity(
            self.max_nodes as usize * freqs.len() * self.platform.cores as usize,
        );
        for nodes in 1..=self.max_nodes {
            for &(freq, opp) in &freqs {
                for cores in 1..=self.platform.cores {
                    out.push((NodeConfig { nodes, cores, freq }, opp));
                }
            }
        }
        out
    }
}

/// The enumerable configuration space over a set of node types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSpace {
    /// Per-type bounds, fixed order.
    pub types: Vec<TypeBounds>,
}

impl ConfigSpace {
    /// Build a space from `(platform, max nodes)` pairs.
    #[must_use]
    pub fn new(types: Vec<TypeBounds>) -> Self {
        Self { types }
    }

    /// Convenience: the paper's two-type space.
    #[must_use]
    pub fn two_type(a: Platform, max_a: u32, b: Platform, max_b: u32) -> Self {
        Self::new(vec![
            TypeBounds {
                platform: a,
                max_nodes: max_a,
            },
            TypeBounds {
                platform: b,
                max_nodes: max_b,
            },
        ])
    }

    /// Exact size of the space: `Σ over non-empty subsets S of
    /// Π_{t∈S} n_t·|f_t|·|c_t|` — equivalently `Π (choices_t + 1) − 1`.
    ///
    /// For the paper's 10 ARM + 10 AMD this is 36 380.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.types
            .iter()
            .map(|t| t.option_count() + 1)
            .product::<u64>()
            .saturating_sub(1)
    }

    /// Iterate over every configuration point (lazily), over the platform
    /// P-states.
    pub fn iter(&self) -> impl Iterator<Item = ClusterPoint> + '_ {
        SpaceIter::new(self.types.iter().map(|t| t.options(None)).collect())
    }

    /// Per-type options for `models` (one model per type, in order): a
    /// type's DVFS ladder when its model carries one, else the platform
    /// P-states.
    ///
    /// # Errors
    /// [`Error::ProfileMismatch`] when the model count differs from the
    /// type count.
    pub(crate) fn model_options(&self, models: &[WorkloadModel]) -> Result<Vec<Vec<TypeOption>>> {
        if self.types.len() != models.len() {
            return Err(Error::ProfileMismatch {
                deployments: self.types.len(),
                profiles: models.len(),
            });
        }
        Ok(self
            .types
            .iter()
            .zip(models)
            .map(|(t, m)| t.options(m.dvfs.as_ref().map(|d| &d.ladder)))
            .collect())
    }
}

/// Lazy odometer over the product of per-type option lists.
///
/// Digit `t` is `0` when type `t` is unused, else `d` for its option
/// `d - 1`; type 0 varies fastest and the all-unused point is skipped.
pub(crate) struct SpaceIter {
    options: Vec<Vec<TypeOption>>,
    digits: Vec<usize>,
    done: bool,
}

impl SpaceIter {
    pub(crate) fn new(options: Vec<Vec<TypeOption>>) -> Self {
        let mut it = Self {
            digits: vec![0; options.len()],
            done: options.is_empty(),
            options,
        };
        // Skip the all-unused (empty cluster) point.
        it.advance();
        it
    }

    fn advance(&mut self) {
        for (d, opts) in self.digits.iter_mut().zip(&self.options) {
            if *d < opts.len() {
                *d += 1;
                return;
            }
            *d = 0;
        }
        self.done = true;
    }
}

impl Iterator for SpaceIter {
    type Item = ClusterPoint;

    fn next(&mut self) -> Option<ClusterPoint> {
        if self.done {
            return None;
        }
        let per_type = self
            .digits
            .iter()
            .zip(&self.options)
            .map(|(&d, opts)| d.checked_sub(1).map(|i| opts[i].0))
            .collect();
        self.advance();
        Some(ClusterPoint { per_type })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_space(max_arm: u32, max_amd: u32) -> ConfigSpace {
        ConfigSpace::two_type(
            Platform::reference_arm(),
            max_arm,
            Platform::reference_amd(),
            max_amd,
        )
    }

    #[test]
    fn paper_count_footnote2() {
        // §IV-B footnote 2: 36 000 mixed + 200 ARM-only + 180 AMD-only.
        let space = paper_space(10, 10);
        assert_eq!(space.count(), 36_380);
    }

    #[test]
    fn count_matches_enumeration() {
        let space = paper_space(2, 3);
        let pts: Vec<ClusterPoint> = space.iter().collect();
        assert_eq!(pts.len() as u64, space.count());
        // 2·5·4 = 40 ARM choices; 3·3·6 = 54 AMD choices;
        // 40·54 + 40 + 54 = 2254.
        assert_eq!(space.count(), 2254);
    }

    #[test]
    fn no_empty_point_and_no_duplicates() {
        let space = paper_space(2, 2);
        let pts: Vec<ClusterPoint> = space.iter().collect();
        assert!(pts.iter().all(|p| p.types_used() >= 1));
        let mut labels: Vec<String> = pts.iter().map(|p| format!("{:?}", p)).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), pts.len(), "duplicate configurations emitted");
    }

    #[test]
    fn decoded_configs_are_valid() {
        let space = paper_space(3, 2);
        for p in space.iter() {
            for (t, cfg) in space.types.iter().zip(&p.per_type) {
                if let Some(c) = cfg {
                    assert!(c.nodes >= 1 && c.nodes <= t.max_nodes);
                    assert!(c.cores >= 1 && c.cores <= t.platform.cores);
                    assert!(t.platform.supports_frequency(c.freq));
                }
            }
        }
    }

    #[test]
    fn options_order_is_nodes_freq_cores() {
        let b = TypeBounds {
            platform: Platform::reference_arm(),
            max_nodes: 2,
        };
        let c = b.platform.cores as usize;
        let nf = b.platform.freqs.len();
        let opts = b.options(None);
        assert_eq!(opts.len() as u64, b.option_count());
        assert_eq!(opts[0], (NodeConfig::new(1, 1, b.platform.freqs[0]), None));
        assert_eq!(opts[c].0.freq, b.platform.freqs[1]); // next P-state after the core axis wraps
        assert_eq!(opts[nf * c].0.nodes, 2); // node axis outermost

        let ladder = crate::dvfs::NodeDvfs::synthetic_ladder(
            &crate::profile::WorkloadModel::synthetic_cpu_bound(&b.platform, "ep", 60.0).power,
            b.platform.cores,
            0.1,
        )
        .ladder;
        let opts = b.options(Some(&ladder));
        assert_eq!(opts.len(), 2 * ladder.len() * c);
        // First block: 1 node, OPP 0, cores 1..=C.
        assert_eq!(
            opts[0],
            (NodeConfig::new(1, 1, ladder.effective_freq(0)), Some(0))
        );
        assert_eq!(opts[c].1, Some(1)); // next OPP after the core axis wraps
        assert_eq!(opts[ladder.len() * c].0.nodes, 2); // node axis outermost
    }

    #[test]
    fn homogeneous_detection() {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let hetero = ClusterPoint {
            per_type: vec![
                Some(NodeConfig::maxed(&arm, 2)),
                Some(NodeConfig::maxed(&amd, 1)),
            ],
        };
        assert!(!hetero.is_homogeneous());
        assert_eq!(hetero.total_nodes(), 3);
        let homo = ClusterPoint {
            per_type: vec![Some(NodeConfig::maxed(&arm, 2)), None],
        };
        assert!(homo.is_homogeneous());
        assert_eq!(homo.types_used(), 1);
    }

    #[test]
    fn label_is_readable() {
        let arm = Platform::reference_arm();
        let amd = Platform::reference_amd();
        let p = ClusterPoint {
            per_type: vec![
                Some(NodeConfig::new(8, 4, Frequency::from_ghz(1.4))),
                Some(NodeConfig::new(1, 6, Frequency::from_ghz(2.1))),
            ],
        };
        let label = p.label(&[arm, amd]);
        assert!(label.contains("ARM Cortex-A9 8(4c@1.40 GHz)"), "{label}");
        assert!(label.contains("AMD K10 1(6c@2.10 GHz)"), "{label}");
    }

    #[test]
    fn single_type_space() {
        let space = ConfigSpace::new(vec![TypeBounds {
            platform: Platform::reference_arm(),
            max_nodes: 10,
        }]);
        // 10 × 5 × 4 = 200 (paper footnote 2, ARM-only term).
        assert_eq!(space.count(), 200);
        assert_eq!(space.iter().count(), 200);
    }

    #[test]
    fn three_type_space_counts() {
        let arm = Platform::reference_arm();
        let space = ConfigSpace::new(vec![
            TypeBounds {
                platform: arm.clone(),
                max_nodes: 1,
            },
            TypeBounds {
                platform: arm.clone(),
                max_nodes: 1,
            },
            TypeBounds {
                platform: arm,
                max_nodes: 1,
            },
        ]);
        // choices per type: 1·5·4 = 20 → (20+1)^3 − 1 = 9260.
        assert_eq!(space.count(), 9260);
        assert_eq!(space.iter().count(), 9260);
    }
}
