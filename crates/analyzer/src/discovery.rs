//! New-feed discovery (paper §5.1).
//!
//! Files that match no registered feed are generalized into
//! [`bistro_pattern::Shape`]s and clustered into *atomic feeds*: "a
//! sequence of files sharing the same structure of the filename".
//! Clustering is two-phase:
//!
//! 1. exact shape-signature clustering (cheap hash lookup per file);
//! 2. a merge pass that folds signature-clusters with the same abstract
//!    structure together, widening variable alpha tokens into
//!    categorical fields — but only when the clusters share the same
//!    *leading name token* (`MEMORY_…` never merges with `CPU_…`; the
//!    paper notes Bistro "cannot automatically determine if both of the
//!    classes of files belong to the same feed", so we stay conservative
//!    and leave cross-name grouping to the human expert).
//!
//! Per cluster the discoverer infers the inter-arrival period (median of
//! feed-timestamp deltas) and the number of contributing sources (the
//! domain size of a small integer field, e.g. the poller id).

use bistro_base::{TimePoint, TimeSpan};
use bistro_pattern::generalize::{generalize, Shape, ShapeElem};
use bistro_pattern::Pattern;
use std::collections::BTreeMap;

/// A suggested feed definition produced by discovery.
#[derive(Clone, Debug)]
pub struct DiscoveredFeed {
    /// The suggested pattern.
    pub pattern: Pattern,
    /// How many files support it.
    pub support: usize,
    /// Example filenames (capped).
    pub examples: Vec<String>,
    /// Inferred interval between consecutive feed timestamps.
    pub period: Option<TimeSpan>,
    /// Inferred number of contributing sources (e.g. pollers).
    pub sources: Option<usize>,
    /// Human-readable field/domain description.
    pub description: String,
}

const EXAMPLE_CAP: usize = 5;

struct Cluster {
    shape: Shape,
    examples: Vec<String>,
    feed_times: Vec<TimePoint>,
}

/// Incremental atomic-feed discoverer.
#[derive(Default)]
pub struct FeedDiscoverer {
    clusters: BTreeMap<String, Cluster>,
    total_files: usize,
}

impl FeedDiscoverer {
    /// Fresh discoverer.
    pub fn new() -> FeedDiscoverer {
        FeedDiscoverer::default()
    }

    /// Ingest one unmatched filename.
    pub fn observe(&mut self, name: &str) {
        self.total_files += 1;
        let shape = generalize(name);
        let feed_time = shape_feed_time(name, &shape);
        let sig = shape.signature();
        match self.clusters.get_mut(&sig) {
            Some(cluster) => {
                let merged = cluster.shape.merge(&shape, false);
                debug_assert!(merged, "equal signatures must merge");
                if cluster.examples.len() < EXAMPLE_CAP {
                    cluster.examples.push(name.to_string());
                }
                if let Some(t) = feed_time {
                    cluster.feed_times.push(t);
                }
            }
            None => {
                self.clusters.insert(
                    sig,
                    Cluster {
                        shape,
                        examples: vec![name.to_string()],
                        feed_times: feed_time.into_iter().collect(),
                    },
                );
            }
        }
    }

    /// Total files observed.
    pub fn total_files(&self) -> usize {
        self.total_files
    }

    /// Produce suggested feed definitions: merge compatible clusters,
    /// then rank by support. `min_support` filters noise clusters.
    pub fn suggestions(&self, min_support: usize) -> Vec<DiscoveredFeed> {
        // merge pass: group by (structure signature, leading name token)
        let mut merged: BTreeMap<(String, String), Cluster> = BTreeMap::new();
        for cluster in self.clusters.values() {
            let key = (
                cluster.shape.structure_signature(),
                leading_name(&cluster.shape).unwrap_or_default().to_string(),
            );
            match merged.get_mut(&key) {
                Some(target) => {
                    if target.shape.merge(&cluster.shape, true) {
                        target.examples.extend(
                            cluster
                                .examples
                                .iter()
                                .take(EXAMPLE_CAP.saturating_sub(target.examples.len()))
                                .cloned(),
                        );
                        target.feed_times.extend(&cluster.feed_times);
                    } else {
                        // structurally incompatible despite equal keys —
                        // keep separate under a disambiguated key
                        let alt = (
                            key.0.clone(),
                            format!("{}#{}", key.1, cluster.shape.to_pattern()),
                        );
                        merged.insert(
                            alt,
                            Cluster {
                                shape: cluster.shape.clone(),
                                examples: cluster.examples.clone(),
                                feed_times: cluster.feed_times.clone(),
                            },
                        );
                    }
                }
                None => {
                    merged.insert(
                        key,
                        Cluster {
                            shape: cluster.shape.clone(),
                            examples: cluster.examples.clone(),
                            feed_times: cluster.feed_times.clone(),
                        },
                    );
                }
            }
        }

        let mut out: Vec<DiscoveredFeed> = merged
            .into_values()
            .filter(|c| c.shape.support >= min_support)
            .map(|c| {
                let period = infer_period(&c.feed_times);
                let sources = infer_sources(&c.shape);
                DiscoveredFeed {
                    pattern: c.shape.to_pattern(),
                    support: c.shape.support,
                    examples: c.examples,
                    period,
                    sources,
                    description: c.shape.describe(),
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.support
                .cmp(&a.support)
                .then(a.pattern.text().cmp(b.pattern.text()))
        });
        out
    }
}

/// The first alphabetic literal token of a shape (the "name" of the
/// data-generating software, e.g. `MEMORY`).
pub(crate) fn leading_name(shape: &Shape) -> Option<&str> {
    for e in shape.elems() {
        match e {
            ShapeElem::Lit(s) if s.chars().all(|c| c.is_ascii_alphabetic()) => return Some(s),
            ShapeElem::Lit(_) => continue, // leading punctuation
            _ => return None,              // starts with a variable field
        }
    }
    None
}

/// Extract the feed timestamp embedded in a filename via its shape.
fn shape_feed_time(name: &str, shape: &Shape) -> Option<TimePoint> {
    if !shape.has_timestamp() {
        return None;
    }
    shape.to_pattern().match_str(name)?.timestamp()
}

/// Median of consecutive deltas between sorted distinct timestamps.
fn infer_period(times: &[TimePoint]) -> Option<TimeSpan> {
    if times.len() < 3 {
        return None;
    }
    let mut sorted: Vec<u64> = times.iter().map(|t| t.as_micros()).collect();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() < 3 {
        return None;
    }
    let mut deltas: Vec<u64> = sorted.windows(2).map(|w| w[1] - w[0]).collect();
    deltas.sort_unstable();
    Some(TimeSpan::from_micros(deltas[deltas.len() / 2]))
}

/// If the shape has exactly one small-domain integer field, its domain
/// size is the number of contributing sources.
fn infer_sources(shape: &Shape) -> Option<usize> {
    let mut candidates: Vec<usize> = Vec::new();
    for e in shape.elems() {
        if let ShapeElem::IntVar {
            domain, min, max, ..
        } = e
        {
            // a source-id field: small domain, small values
            if domain.len() >= 2 && domain.len() <= 32 && *max - *min <= 64 {
                candidates.push(domain.len());
            }
        }
    }
    if candidates.len() == 1 {
        Some(candidates[0])
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §5.1 worked example.
    fn paper_stream() -> Vec<&'static str> {
        vec![
            "MEMORY_POLLER1_2010092504_51.csv.gz",
            "CPU_POLL1_201009250502.txt",
            "MEMORY_POLLER2_2010092504_59.csv.gz",
            "MEMORY_POLLER1_2010092509_58.csv.gz",
            "CPU_POLL2_201009250503.txt",
            "MEMORY_POLLER2_2010092510_02.csv.gz",
            "CPU_POLL2_201009251001.txt",
            "CPU_POLL2_201009250959.txt",
        ]
    }

    #[test]
    fn paper_example_finds_two_atomic_feeds() {
        let mut d = FeedDiscoverer::new();
        for name in paper_stream() {
            d.observe(name);
        }
        let feeds = d.suggestions(1);
        assert_eq!(feeds.len(), 2, "{feeds:#?}");
        let patterns: Vec<_> = feeds.iter().map(|f| f.pattern.text().to_string()).collect();
        assert!(
            patterns.contains(&"MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz".to_string()),
            "{patterns:?}"
        );
        assert!(
            patterns.contains(&"CPU_POLL%i_%Y%m%d%H%M.txt".to_string()),
            "{patterns:?}"
        );
        // the id field domain {1, 2} ⇒ two sources
        for f in &feeds {
            assert_eq!(f.sources, Some(2), "feed {}", f.pattern);
        }
    }

    #[test]
    fn period_inference_five_minutes() {
        // "both classes of files should expect to see a new file generated
        // every 5 minutes from each of the pollers"
        let mut d = FeedDiscoverer::new();
        for slot in 0..12 {
            let h = 4 + (slot * 5 + 51) / 60;
            let m = (slot * 5 + 51) % 60;
            for poller in 1..=2 {
                d.observe(&format!("MEMORY_POLLER{poller}_201009250{h}_{m:02}.csv.gz"));
            }
        }
        let feeds = d.suggestions(1);
        assert_eq!(feeds.len(), 1);
        assert_eq!(feeds[0].period, Some(TimeSpan::from_mins(5)), "{feeds:#?}");
        assert_eq!(feeds[0].support, 24);
    }

    #[test]
    fn bps_and_pps_stay_separate() {
        // identical structure, different name token ⇒ distinct feeds
        let mut d = FeedDiscoverer::new();
        for day in 10..20 {
            d.observe(&format!("BPS_poller1_201009{day}.csv"));
            d.observe(&format!("PPS_poller1_201009{day}.csv"));
        }
        let feeds = d.suggestions(2);
        assert_eq!(feeds.len(), 2, "{feeds:#?}");
    }

    #[test]
    fn min_support_filters_noise() {
        let mut d = FeedDiscoverer::new();
        for day in 10..20 {
            d.observe(&format!("GOOD_p1_201009{day}.csv"));
        }
        d.observe("stray-file.tmp");
        let feeds = d.suggestions(3);
        assert_eq!(feeds.len(), 1);
        assert!(feeds[0].pattern.text().starts_with("GOOD"));
    }

    #[test]
    fn discovered_patterns_match_their_files() {
        let mut d = FeedDiscoverer::new();
        let names: Vec<String> = (0..20)
            .map(|i| format!("LOG_host{}_2010_12_{:02}.txt", i % 3, 1 + i % 28))
            .collect();
        for n in &names {
            d.observe(n);
        }
        let feeds = d.suggestions(1);
        for name in &names {
            assert!(
                feeds.iter().any(|f| f.pattern.is_match(name)),
                "no discovered pattern covers {name}"
            );
        }
    }

    #[test]
    fn merge_pass_widens_categorical_alpha() {
        // same leading name, varying later alpha token ⇒ categorical
        let mut d = FeedDiscoverer::new();
        for region in ["east", "west", "north"] {
            for day in 10..15 {
                d.observe(&format!("TRAFFIC_{region}_201009{day}.csv"));
            }
        }
        let feeds = d.suggestions(1);
        assert_eq!(feeds.len(), 1, "{feeds:#?}");
        assert_eq!(feeds[0].pattern.text(), "TRAFFIC_%a_%Y%m%d.csv");
        assert!(feeds[0].description.contains("categorical"));
        assert_eq!(feeds[0].support, 15);
    }

    #[test]
    fn ranking_by_support() {
        let mut d = FeedDiscoverer::new();
        for day in 10..20 {
            d.observe(&format!("BIG_p1_201009{day}.csv"));
        }
        for day in 10..13 {
            d.observe(&format!("SMALL_p1_201009{day}.csv"));
        }
        let feeds = d.suggestions(1);
        assert!(feeds[0].pattern.text().starts_with("BIG"));
        assert!(feeds[0].support > feeds[1].support);
    }
}
