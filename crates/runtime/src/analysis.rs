//! Derived analyses: the Fig. 6 inefficiency waterfall, the Fig. 7 per-group
//! area efficiency, and the Sec. VI headline metrics.

use crate::pipeline::RunReport;
use crate::power::{AreaModel, EnergyBreakdown, EnergyModel};
use aimc_core::{bottleneck_per_image, ArchConfig, SystemMapping};
use aimc_dnn::{group_label, Graph};
use aimc_noc::LinkId;

/// Utilization of one interconnect tier over a run — the per-link
/// attribution behind Fig. 6's "communication" bar: whether stalls come
/// from the HBM channel or from a specific tree level.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkLoad {
    /// Tier label: `"hbm-channel"` or `"tree-L<level>"`.
    pub label: String,
    /// Directed links in the tier.
    pub links: usize,
    /// Busy fraction of the tier's busiest link over the makespan.
    pub peak_util: f64,
    /// Mean busy fraction across the tier's links.
    pub mean_util: f64,
    /// Total bytes carried by the tier.
    pub bytes: u64,
    /// Worst per-link queue depth seen anywhere in the tier.
    pub peak_queued: u32,
}

/// Groups a run's per-link fabric statistics into interconnect tiers: the
/// HBM channel (the DRAM controller service) first, then each quadrant-tree
/// level from the leaves up.
pub fn link_loads(report: &RunReport) -> Vec<LinkLoad> {
    let span = report.makespan.as_ps().max(1) as f64;
    let mut out = Vec::new();
    // The HBM channel tier: the wrapper<->controller links plus the DRAM
    // controller service itself.
    let hbm: Vec<_> = report
        .fabric
        .links
        .iter()
        .filter(|l| matches!(l.id, LinkId::HbmUp | LinkId::HbmDown | LinkId::HbmCtrl))
        .collect();
    if !hbm.is_empty() {
        let peak = hbm.iter().map(|l| l.busy.as_ps()).max().unwrap_or(0);
        let total: u64 = hbm.iter().map(|l| l.busy.as_ps()).sum();
        out.push(LinkLoad {
            label: "hbm-channel".into(),
            links: hbm.len(),
            peak_util: peak as f64 / span,
            mean_util: total as f64 / span / hbm.len() as f64,
            bytes: hbm.iter().map(|l| l.bytes).sum(),
            peak_queued: hbm.iter().map(|l| l.peak_queued).max().unwrap_or(0),
        });
    }
    let n_levels = report
        .fabric
        .links
        .iter()
        .filter_map(|l| match l.id {
            LinkId::Up { level, .. } | LinkId::Down { level, .. } => Some(level),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    for level in 1..=n_levels {
        let rows: Vec<_> = report
            .fabric
            .links
            .iter()
            .filter(|l| {
                matches!(l.id,
                    LinkId::Up { level: lv, .. } | LinkId::Down { level: lv, .. } if lv == level)
            })
            .collect();
        let peak = rows.iter().map(|l| l.busy.as_ps()).max().unwrap_or(0);
        let total: u64 = rows.iter().map(|l| l.busy.as_ps()).sum();
        out.push(LinkLoad {
            label: format!("tree-L{level}"),
            links: rows.len(),
            peak_util: peak as f64 / span,
            mean_util: total as f64 / span / rows.len().max(1) as f64,
            bytes: rows.iter().map(|l| l.bytes).sum(),
            peak_queued: rows.iter().map(|l| l.peak_queued).max().unwrap_or(0),
        });
    }
    out
}

/// The five levels of Fig. 6, in TOPS (nominal-ops convention).
#[derive(Debug, Clone, PartialEq)]
pub struct Waterfall {
    /// Every IMA fully occupied and busy (≈516 TOPS for Table I).
    pub ideal: f64,
    /// Only mapped clusters contribute ("global mapping").
    pub global_mapping: f64,
    /// Crossbar cells actually occupied ("local mapping").
    pub local_mapping: f64,
    /// Pipeline bound by its slowest stage, communication-free
    /// ("intra-layer unbalance").
    pub intra_layer_unbalance: f64,
    /// Measured steady-state throughput with communication and
    /// synchronization ("communication").
    pub communication: f64,
    /// Per-tier interconnect load: attributes the final bar's loss to the
    /// HBM channel vs specific tree levels.
    pub link_loads: Vec<LinkLoad>,
}

impl Waterfall {
    /// Computes the waterfall for a mapped network and its simulation run.
    pub fn compute(
        graph: &Graph,
        mapping: &SystemMapping,
        arch: &ArchConfig,
        report: &RunReport,
    ) -> Self {
        let ideal = arch.ideal_tops();
        let global = ideal * mapping.global_mapping_factor();
        let util = mapping
            .local_mapping_utilization(arch.cluster.ima.xbar.rows, arch.cluster.ima.xbar.cols);
        // `util` is the mean over used clusters, so the achievable rate is
        // the global-mapping level scaled by it.
        let local = global * util;
        let ops_per_image = graph.total_ops() as f64;
        let bottleneck = bottleneck_per_image(&mapping.stages, arch);
        let unbalance = ops_per_image / bottleneck.as_s_f64() / 1e12;
        // The last bar is the *modeled* end-to-end throughput over the
        // simulated batch makespan: communication, synchronization, and
        // pipeline fill/drain all land here (the paper's 20.2 TOPS is
        // likewise the delivered end-to-end number).
        let communication = report.tops();
        Waterfall {
            ideal,
            global_mapping: global,
            local_mapping: local,
            intra_layer_unbalance: unbalance,
            communication: communication.min(unbalance),
            link_loads: link_loads(report),
        }
    }

    /// The five levels in order, with labels.
    pub fn levels(&self) -> [(&'static str, f64); 5] {
        [
            ("ideal", self.ideal),
            ("global mapping", self.global_mapping),
            ("local mapping", self.local_mapping),
            ("intra-layer unbalance", self.intra_layer_unbalance),
            ("communication", self.communication),
        ]
    }

    /// Cumulative degradation factor of each level vs ideal.
    pub fn cumulative_factors(&self) -> [f64; 4] {
        [
            self.ideal / self.global_mapping,
            self.ideal / self.local_mapping,
            self.ideal / self.intra_layer_unbalance,
            self.ideal / self.communication,
        ]
    }

    /// Renders the Fig. 6 table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<24} {:>10} {:>8}", "level", "TOPS", "vs ideal");
        let mut prev = self.ideal;
        for (name, tops) in self.levels() {
            let step = prev / tops;
            let _ = writeln!(
                out,
                "{:<24} {:>10.1} {:>7.1}x (step {:.1}x)",
                name,
                tops,
                self.ideal / tops,
                step
            );
            prev = tops;
        }
        out
    }

    /// Renders the per-tier interconnect load table that attributes the
    /// communication bar to specific links.
    pub fn render_links(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>7} {:>7} {:>12} {:>6}",
            "tier", "links", "peak", "mean", "bytes", "queue"
        );
        for l in &self.link_loads {
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>6.1}% {:>6.1}% {:>12} {:>6}",
                l.label,
                l.links,
                l.peak_util * 100.0,
                l.mean_util * 100.0,
                l.bytes,
                l.peak_queued
            );
        }
        out
    }
}

/// One bar of Fig. 7: area efficiency of a layer group's clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupEfficiency {
    /// Group index (0..=5).
    pub group: usize,
    /// IFM-shape label ("64x64x64", …).
    pub label: &'static str,
    /// Clusters mapped to the group (replicas included).
    pub clusters: usize,
    /// Nominal operations per image in this group.
    pub ops_per_image: u64,
    /// Area efficiency in GOPS/mm², communication excluded (the pipeline
    /// period is the compute-only bottleneck, as in Fig. 7's caption).
    pub gops_per_mm2: f64,
}

/// Computes Fig. 7: per-group GOPS/mm² at the communication-free pipeline
/// period.
pub fn group_area_efficiency(
    graph: &Graph,
    mapping: &SystemMapping,
    arch: &ArchConfig,
    area: &AreaModel,
) -> Vec<GroupEfficiency> {
    let n_groups = 6;
    let mut clusters = vec![0usize; n_groups];
    for s in mapping.stages() {
        if s.group < n_groups {
            clusters[s.group] += s.total_clusters();
        }
    }
    let mut ops = vec![0u64; n_groups];
    for node in graph.nodes() {
        let g = aimc_dnn::layer_group(graph, node.id);
        if g < n_groups {
            // MAC ops plus the digital element ops of pooling/residual
            // layers (a group consisting only of digital work — group 1,
            // the stem max-pool — still performs operations).
            ops[g] += 2 * node.macs(graph) + node.digital_elem_ops(graph);
        }
    }
    let period = bottleneck_per_image(&mapping.stages, arch).as_s_f64();
    (0..n_groups)
        .map(|g| {
            let area_mm2 = clusters[g] as f64 * area.cluster_mm2();
            let gops = if period > 0.0 {
                ops[g] as f64 / period / 1e9
            } else {
                0.0
            };
            GroupEfficiency {
                group: g,
                label: group_label(g),
                clusters: clusters[g],
                ops_per_image: ops[g],
                gops_per_mm2: if area_mm2 > 0.0 { gops / area_mm2 } else { 0.0 },
            }
        })
        .collect()
}

/// The Sec. VI headline metrics of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// Nominal TOPS over the batch makespan.
    pub tops: f64,
    /// Steady-state images per second.
    pub images_per_s: f64,
    /// Batch makespan (fill + steady + drain) in ms.
    pub makespan_ms: f64,
    /// Median steady-state batch interval in ms (16 × per-image interval).
    pub steady_batch_ms: f64,
    /// Batch energy in mJ.
    pub energy_mj: f64,
    /// Energy efficiency in TOPS/W.
    pub tops_per_w: f64,
    /// Area efficiency in GOPS/mm² over the full 512-cluster platform.
    pub gops_per_mm2: f64,
    /// Platform area in mm².
    pub area_mm2: f64,
    /// Clusters used of clusters available.
    pub clusters_used: (usize, usize),
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// HBM channel (DRAM controller) busy fraction over the makespan.
    pub hbm_channel_util: f64,
    /// The busiest quadrant-tree tier (label, peak-link busy fraction) —
    /// where communication stalls concentrate when it is not the HBM.
    pub hottest_tree_tier: Option<(String, f64)>,
}

impl Headline {
    /// Computes the headline metrics from a run.
    pub fn compute(
        mapping: &SystemMapping,
        arch: &ArchConfig,
        report: &RunReport,
        energy_model: &EnergyModel,
        area_model: &AreaModel,
    ) -> Self {
        let energy = energy_model.breakdown(&report.tallies);
        let total_mj = energy.total_mj();
        let avg_w = total_mj * 1e-3 / report.makespan.as_s_f64();
        let tops = report.tops();
        let area = area_model.platform_mm2(arch.n_clusters());
        let loads = link_loads(report);
        let hbm_channel_util = loads
            .iter()
            .find(|l| l.label == "hbm-channel")
            .map_or(0.0, |l| l.peak_util);
        let hottest_tree_tier = loads
            .iter()
            .filter(|l| l.label != "hbm-channel")
            .max_by(|a, b| a.peak_util.total_cmp(&b.peak_util))
            .map(|l| (l.label.clone(), l.peak_util));
        Headline {
            tops,
            images_per_s: report.images_per_s(),
            makespan_ms: report.makespan.as_ms_f64(),
            steady_batch_ms: report.steady_interval.as_ms_f64() * report.batch as f64,
            energy_mj: total_mj,
            tops_per_w: if avg_w > 0.0 { tops / avg_w } else { 0.0 },
            gops_per_mm2: tops * 1000.0 / area,
            area_mm2: area,
            clusters_used: (mapping.n_clusters_used, mapping.n_clusters_available),
            energy,
            hbm_channel_util,
            hottest_tree_tier,
        }
    }

    /// Renders the modeled metrics as a table with the paper's reference
    /// values alongside.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>12} {:>12}", "metric", "modeled", "paper");
        let rows = [
            ("throughput [TOPS]", format!("{:.1}", self.tops), "20.2"),
            (
                "throughput [images/s]",
                format!("{:.0}", self.images_per_s),
                "3303",
            ),
            (
                "batch latency [ms]",
                format!("{:.2}", self.makespan_ms),
                "9.2",
            ),
            (
                "steady batch interval [ms]",
                format!("{:.2}", self.steady_batch_ms),
                "4.8",
            ),
            ("batch energy [mJ]", format!("{:.1}", self.energy_mj), "15"),
            (
                "energy efficiency [TOPS/W]",
                format!("{:.2}", self.tops_per_w),
                "6.5",
            ),
            (
                "area efficiency [GOPS/mm2]",
                format!("{:.1}", self.gops_per_mm2),
                "42",
            ),
            (
                "platform area [mm2]",
                format!("{:.0}", self.area_mm2),
                "480",
            ),
            (
                "clusters used",
                format!("{}/{}", self.clusters_used.0, self.clusters_used.1),
                "322/512",
            ),
        ];
        for (name, val, paper) in rows {
            let _ = writeln!(out, "{:<28} {:>12} {:>12}", name, val, paper);
        }
        let _ = writeln!(
            out,
            "{:<28} {:>11.1}% {:>12}",
            "hbm channel util",
            self.hbm_channel_util * 100.0,
            "-"
        );
        if let Some((tier, util)) = &self.hottest_tree_tier {
            let _ = writeln!(
                out,
                "{:<28} {:>12} {:>12}",
                "hottest tree tier",
                format!("{} {:.1}%", tier, util * 100.0),
                "-"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::simulate;
    use aimc_core::{map_network, MappingStrategy};
    use aimc_dnn::resnet18;

    fn setup() -> (Graph, SystemMapping, ArchConfig, RunReport) {
        let g = resnet18(256, 256, 1000);
        let arch = ArchConfig::paper();
        let m = map_network(&g, &arch, MappingStrategy::OnChipResiduals).unwrap();
        let r = simulate(&g, &m, &arch, 4).unwrap();
        (g, m, arch, r)
    }

    #[test]
    fn waterfall_levels_decrease_monotonically() {
        let (g, m, arch, r) = setup();
        let w = Waterfall::compute(&g, &m, &arch, &r);
        assert!(w.ideal > w.global_mapping);
        assert!(w.global_mapping > w.local_mapping);
        assert!(w.local_mapping > w.intra_layer_unbalance);
        assert!(w.intra_layer_unbalance >= w.communication);
        assert!(w.communication > 1.0, "final {}", w.communication);
    }

    #[test]
    fn waterfall_ideal_matches_fig6() {
        let (g, m, arch, r) = setup();
        let w = Waterfall::compute(&g, &m, &arch, &r);
        assert!((w.ideal - 516.1).abs() < 1.0);
        // Paper cumulative factors: 1.6x, 4.7x, 23.8x, 28.4x. Ours must be
        // in the same regime (same monotone structure, same order).
        let f = w.cumulative_factors();
        assert!((1.2..2.2).contains(&f[0]), "global {:?}", f);
        assert!((2.0..9.0).contains(&f[1]), "local {:?}", f);
        assert!(f[2] > f[1], "unbalance must add degradation: {:?}", f);
        assert!(f[3] >= f[2], "communication must not help: {:?}", f);
    }

    #[test]
    fn waterfall_render_has_five_levels() {
        let (g, m, arch, r) = setup();
        let w = Waterfall::compute(&g, &m, &arch, &r);
        let s = w.render();
        assert_eq!(s.lines().count(), 6); // header + 5 levels
        assert!(s.contains("ideal"));
        assert!(s.contains("communication"));
    }

    #[test]
    fn group_efficiency_covers_six_groups() {
        let (g, m, arch, _) = setup();
        let eff = group_area_efficiency(&g, &m, &arch, &AreaModel::default());
        assert_eq!(eff.len(), 6);
        let digital: u64 = g.nodes().iter().map(|n| n.digital_elem_ops(&g)).sum();
        let total_ops: u64 = eff.iter().map(|e| e.ops_per_image).sum();
        assert_eq!(total_ops, g.total_ops() + digital);
        // Every group has clusters and positive efficiency.
        for e in &eff {
            assert!(e.clusters > 0, "group {} empty", e.group);
            assert!(e.gops_per_mm2 > 0.0);
        }
    }

    #[test]
    fn deep_group_is_least_efficient_of_the_conv_groups() {
        // Fig. 7: group 5 (8x8x512) has poor reuse ⇒ lowest GOPS/mm² among
        // the residual-stage groups.
        let (g, m, arch, _) = setup();
        let eff = group_area_efficiency(&g, &m, &arch, &AreaModel::default());
        assert!(eff[5].gops_per_mm2 < eff[2].gops_per_mm2);
        assert!(eff[5].gops_per_mm2 < eff[3].gops_per_mm2);
        assert!(eff[5].gops_per_mm2 < eff[4].gops_per_mm2);
    }

    #[test]
    fn link_loads_attribute_traffic_to_tiers() {
        let (g, m, arch, r) = setup();
        let w = Waterfall::compute(&g, &m, &arch, &r);
        // HBM channel first, then one row per tree level.
        assert_eq!(w.link_loads[0].label, "hbm-channel");
        assert_eq!(w.link_loads.len(), 1 + arch.noc.n_levels());
        for l in &w.link_loads {
            assert!(l.peak_util >= l.mean_util, "{}: peak < mean", l.label);
            assert!(l.peak_util <= 1.0, "{}: util > 1", l.label);
        }
        // ResNet-18 inputs/outputs cross the HBM: the channel must be used.
        assert!(w.link_loads[0].bytes > 0);
        assert!(w.link_loads[0].peak_util > 0.0);
        // Tier bytes (plus the channel itself) cover all routed bytes.
        let tier_bytes: u64 = w.link_loads.iter().map(|l| l.bytes).sum();
        assert_eq!(tier_bytes, r.fabric.link_bytes);
        let table = w.render_links();
        assert!(table.contains("hbm-channel"));
        assert!(table.contains("tree-L1"));
    }

    #[test]
    fn headline_is_self_consistent() {
        let (g, m, arch, r) = setup();
        let _ = g;
        let h = Headline::compute(
            &m,
            &arch,
            &r,
            &EnergyModel::default(),
            &AreaModel::default(),
        );
        assert!(h.tops > 1.0);
        assert!(h.images_per_s > 100.0);
        assert!((h.area_mm2 - 480.0).abs() < 0.1);
        assert!(h.energy_mj > 0.0);
        assert!(h.tops_per_w > 0.0);
        // GOPS/mm² consistent with TOPS and area.
        assert!((h.gops_per_mm2 - h.tops * 1000.0 / h.area_mm2).abs() < 1e-9);
        let s = h.render();
        // The simulator's column is labelled as modeled, beside the paper's.
        let header: Vec<&str> = s.lines().next().unwrap().split_whitespace().collect();
        assert_eq!(header, ["metric", "modeled", "paper"]);
        assert!(s.contains("TOPS"));
        assert!(s.contains("20.2")); // paper reference column
    }
}
