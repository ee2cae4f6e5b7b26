//! The benchmark's metric and workload names, units and directions.
//!
//! `BENCHMARK.json` at the repository root carries the same tables (plus the
//! bounds); `tests/contract.rs` fails when the two disagree.

use crate::stats::Summary;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parse [`Better::as_str`].
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Name, unit and direction of one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`layer.quantity` for per-layer metrics).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The five workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 5] = [
    "train_fresh",
    "train_ns",
    "train_sampling",
    "serve",
    "cluster",
];

/// End-to-end metrics: what the untraced run reports, on every workload.
pub const END_TO_END: [MetricDef; 7] = [
    lo("setup_s", "s"),
    lo("pass_s", "s"),
    hi("items_per_s", "1/s"),
    lo("peak_rss_mb", "MB"),
    lo("wire_mb", "MB"),
    hi("test_acc", "fraction"),
    hi("ok_frac", "fraction"),
];

/// Per-layer metrics: what the traced run reports. A layer a workload does
/// not exercise reports 0 there.
pub const PER_LAYER: [MetricDef; 70] = [
    lo("pipeline.sample_s", "s"),
    lo("pipeline.prune_s", "s"),
    lo("pipeline.load_s", "s"),
    lo("pipeline.forward_s", "s"),
    lo("pipeline.backward_s", "s"),
    lo("pipeline.cache_update_s", "s"),
    lo("pipeline.optim_s", "s"),
    lo("pipeline.self_s", "s"),
    lo("pipeline.iters_per_pass", "count"),
    lo("pipeline.warmup_pass_s", "s"),
    hi("tensor.matmul_gflops", "GFLOP/s"),
    hi("tensor.matmul_at_b_gflops", "GFLOP/s"),
    hi("tensor.matmul_a_bt_gflops", "GFLOP/s"),
    hi("tensor.gather_rows_gbps", "GB/s"),
    hi("tensor.scatter_add_rows_gbps", "GB/s"),
    lo("nn.forward_ms_per_batch", "ms"),
    lo("nn.backward_ms_per_batch", "ms"),
    lo("nn.bwd_fwd_ratio", "ratio"),
    lo("nn.optim_step_us", "us"),
    lo("graph.sample_us_per_seed", "us"),
    lo("graph.sampled_edges_per_seed", "count"),
    lo("graph.csr2_prune_ns", "ns"),
    lo("graph.materialize_s", "s"),
    lo("graph.partition_s", "s"),
    lo("prune.batch_us", "us"),
    lo("prune.inputs_kept_frac", "fraction"),
    hi("cache.hit_rate", "fraction"),
    hi("cache.admits_per_iter", "count"),
    lo("cache.stale_evictions_per_pass", "count"),
    lo("cache.grad_evictions_per_pass", "count"),
    lo("cache.max_hit_age_iters", "count"),
    lo("cache.bytes_mb", "MB"),
    lo("cache.ring_lookup_ns", "ns"),
    lo("cache.ring_admit_ns", "ns"),
    lo("loader.load_ns_per_row", "ns"),
    hi("loader.io_saved_frac", "fraction"),
    lo("memsim.one_sided_read_ns", "ns"),
    lo("memsim.alltoall_plan_us", "us"),
    lo("memsim.transfer_sim_s_per_pass", "s"),
    lo("sampler.stall_s_per_pass", "s"),
    hi("sampler.queue_depth_mean", "count"),
    lo("sampler.overlapped_pass_s", "s"),
    lo("runtime.steals_per_pass", "count"),
    lo("runtime.parks_per_pass", "count"),
    lo("runtime.task_roundtrip_us", "us"),
    lo("runtime.spawn_us", "us"),
    hi("serve.hit_rate", "fraction"),
    lo("serve.shed_frac", "fraction"),
    lo("serve.sim_p50_ms", "ms"),
    lo("serve.sim_p99_ms", "ms"),
    lo("serve.max_queue_depth", "count"),
    lo("serve.hit_path_us", "us"),
    lo("serve.miss_path_us", "us"),
    lo("serve.trace_gen_s", "s"),
    lo("cluster.round_ms", "ms"),
    lo("cluster.rounds_per_pass", "count"),
    lo("cluster.nic_mb_per_pass", "MB"),
    lo("cluster.h2d_mb_per_pass", "MB"),
    lo("cluster.degraded_reads", "count"),
    lo("cluster.new_s", "s"),
    lo("cluster.recovery_overhead_frac", "fraction"),
    lo("checkpoint.encode_ms", "ms"),
    lo("checkpoint.decode_ms", "ms"),
    lo("checkpoint.mb", "MB"),
    lo("obs.spans_per_pass", "count"),
    lo("obs.export_ms", "ms"),
    lo("alloc.count_per_item", "count"),
    lo("alloc.kb_per_item", "kB"),
    lo("perf.trace_overhead_frac", "fraction"),
    lo("perf.calib_s", "s"),
];

/// The definition of `name` in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Names are at most 64 letters, digits, `_`, `.` and `-`, starting with a
/// letter or a digit.
pub fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// The measured metrics of one run, by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, Summary>);

impl Metrics {
    /// Record `name` from a single value. Panics on a name the tables do not
    /// carry: a harness bug the smoke run catches.
    pub fn set(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value));
    }

    /// Record `name` as the median of `samples`, keeping min, max and count.
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        self.put(name, Summary::of(samples));
    }

    /// Record `name` from a ready summary.
    pub fn put(&mut self, name: &str, s: Summary) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the tables"));
        self.0.insert(d.name, s);
    }

    /// The summary of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.0.get(name)
    }

    /// Median of `name`, or 0 when it was not recorded.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.median)
    }

    /// Give every metric of `table` this run did not record the value 0.
    pub fn fill_missing(&mut self, table: &'static [MetricDef]) {
        for d in table {
            self.0.entry(d.name).or_insert(Summary::single(0.0));
        }
    }

    /// All recorded metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Summary)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16 && d.unit.chars().all(unit_ok));
        }
    }

    #[test]
    fn name_rule() {
        for good in ["a", "9lives", "pipeline.self_s", "x-y_z.0"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".a", "_a", "-a", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "not in the tables")]
    fn unknown_metric_is_a_bug() {
        Metrics::default().set("pipeline.typo_s", 1.0);
    }
}
