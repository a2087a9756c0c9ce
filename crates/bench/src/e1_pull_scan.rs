//! E1 — pull-based polling cost versus stored history (paper §2.2.1).
//!
//! Claim: "As a stored feed history stored on a feed provider grows, the
//! cost of the filesystem metadata operations (such as performing
//! directory listing) grows linearly with the history size", multiplied
//! by uncoordinated subscribers all scanning independently. Bistro's
//! notification-driven landing zone touches only the new files.

use crate::table::Table;
use bistro_base::SimClock;
use bistro_core::baselines::PullPoller;
use bistro_vfs::{FileStore, MemFs};
use std::sync::Arc;

/// One measured point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Files of stored history on the provider.
    pub history: usize,
    /// Metadata ops for ONE steady-state poll by one subscriber.
    pub pull_ops_per_poll: u64,
    /// Metadata ops per poll round for `subscribers` uncoordinated pollers.
    pub pull_ops_all_subs: u64,
    /// Metadata ops for Bistro to ingest one new file from the landing
    /// zone (scan + move to staging, amortized over a batch of new
    /// files).
    pub bistro_ops_per_file: f64,
}

/// Build a provider with `history` staged files (100 per directory, the
/// daily-directory layout the paper describes).
fn provider(history: usize) -> Arc<MemFs> {
    let fs = MemFs::shared(SimClock::new());
    for i in 0..history {
        fs.write(&format!("staging/F/day{:04}/f{i:06}.csv", i / 100), b"data")
            .unwrap();
    }
    fs
}

/// Run the sweep.
pub fn run(histories: &[usize], subscribers: u64) -> Vec<Point> {
    let mut out = Vec::new();
    for &history in histories {
        let fs = provider(history);
        let mut poller = PullPoller::new("staging");
        poller.poll(fs.as_ref()).unwrap(); // initial catch-up
        let before = fs.stats().snapshot();
        poller.poll(fs.as_ref()).unwrap(); // steady-state: nothing new
        let per_poll = fs.stats().snapshot().since(&before).metadata_ops();

        // Bistro: ingest a fresh batch of files through a landing zone.
        // The landing zone is kept empty, so the scan sees only new data.
        let new_files = 100usize;
        let bistro_fs = provider(history);
        for i in 0..new_files {
            bistro_fs
                .write(&format!("landing/new{i:04}.csv"), b"data")
                .unwrap();
        }
        let before = bistro_fs.stats().snapshot();
        // landing scan + per-file move to staging: the metadata cost of
        // Server::scan_landing (one staging write and one landing remove
        // per file), modelled as a rename
        let landed = bistro_vfs::walk_files(bistro_fs.as_ref(), "landing").unwrap();
        for f in &landed {
            let name = f.strip_prefix("landing/").unwrap();
            bistro_fs
                .rename(f, &format!("staging/F/new/{name}"))
                .unwrap();
        }
        let bistro_ops =
            bistro_fs.stats().snapshot().since(&before).metadata_ops() + landed.len() as u64; // renames counted separately
        out.push(Point {
            history,
            pull_ops_per_poll: per_poll,
            pull_ops_all_subs: per_poll * subscribers,
            bistro_ops_per_file: bistro_ops as f64 / new_files as f64,
        });
    }
    out
}

/// Render the experiment table.
pub fn table(points: &[Point], subscribers: u64) -> Table {
    let mut t = Table::new(
        &format!("E1: steady-state metadata ops — pull polling vs Bistro landing zone ({subscribers} subscribers)"),
        &[
            "history (files)",
            "pull ops/poll (1 sub)",
            &format!("pull ops/poll ({subscribers} subs)"),
            "bistro ops per new file",
        ],
    );
    for p in points {
        t.row(vec![
            p.history.to_string(),
            p.pull_ops_per_poll.to_string(),
            p.pull_ops_all_subs.to_string(),
            format!("{:.1}", p.bistro_ops_per_file),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_cost_scales_linearly_bistro_flat() {
        let points = run(&[1_000, 4_000], 10);
        let ratio = points[1].pull_ops_per_poll as f64 / points[0].pull_ops_per_poll as f64;
        assert!(
            (3.0..6.0).contains(&ratio),
            "4x history should cost ~4x per poll, got {ratio:.2}x"
        );
        // Bistro per-file cost is independent of history
        let b_ratio = points[1].bistro_ops_per_file / points[0].bistro_ops_per_file;
        assert!(
            (0.8..1.2).contains(&b_ratio),
            "bistro cost must not scale with history, got {b_ratio:.2}x"
        );
        // and far cheaper than even a single poll over real history
        assert!(points[1].bistro_ops_per_file * 100.0 < points[1].pull_ops_per_poll as f64);
    }
}
