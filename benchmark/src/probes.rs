//! Layer probes for the traced run: a 1-in-[`EVERY`] sample of the
//! workload's own inputs is replayed through one layer's public
//! function on a side instance, inside a `probe.*` span. The side
//! instances share nothing with the servers under test, so a probe
//! never changes what the workload observes. A probe runs only on a
//! workload whose path crosses its layer ([`Path`]); a call the workload
//! makes itself (`deposit`, `deposit_batch`, the churn flip) is measured
//! by its own span, not probed.

use crate::trace::{SpanId, Tracer};
use bistro_base::{FileId, SharedClock, SimClock, TimePoint};
use bistro_compress::{container, Codec};
use bistro_config::Config;
use bistro_core::{parallel, Classifier, Server};
use bistro_receipts::ReceiptStore;
use bistro_transport::messages::{Message, ReliableMsg, SubscriberMsg};
use bistro_transport::{LinkSpec, RetryPolicy, RetryTracker, SimNetwork};
use bistro_vfs::{FileStore, MemFs};
use std::hint::black_box;
use std::sync::Arc;

/// One input in this many is probed.
pub const EVERY: u64 = 100;
/// The scratch receipt store snapshots after this many probes.
const HOUSEKEEP_EVERY: u64 = 64;

/// The layers a workload's path enters beyond the ones every deposit
/// crosses (classifier, prepare, vfs, receipts).
#[derive(Clone, Copy)]
pub struct Path {
    /// Feeds seal what they stage (`compress lzss`).
    pub seal: bool,
    /// Deliveries cross `SimNetwork` and a retry tracker.
    pub network: bool,
    /// Unmatched names arrive and park in `unknown/`.
    pub unknown: bool,
}

pub struct Probes {
    path: Path,
    sim: Arc<SimClock>,
    clock: SharedClock,
    config: Config,
    classifier: Classifier,
    fs: Arc<MemFs>,
    receipts: ReceiptStore,
    net: SimNetwork,
    tracker: RetryTracker,
    /// A whole server (the workload's config, no network) for the one
    /// probe that needs the full deposit path: an unmatched name
    /// deposited singly.
    server: Option<Server>,
    n: u64,
}

/// A name built from `name` that no feed pattern matches.
pub fn unmatched_name(name: &str) -> String {
    format!("{name}.stray")
}

impl Probes {
    pub fn new(config: &Config, path: Path) -> Probes {
        let sim = SimClock::starting_at(crate::gen::START);
        let clock: SharedClock = sim.clone();
        let fs = MemFs::shared(clock.clone());
        let receipts = ReceiptStore::open(fs.clone() as Arc<dyn FileStore>, "probe_receipts")
            .expect("scratch receipt store opens on an empty MemFs");
        let server = path.unknown.then(|| {
            Server::new(
                "probe",
                config.clone(),
                clock.clone(),
                MemFs::shared(clock.clone()),
            )
            .expect("the workload's own config validated once already")
        });
        Probes {
            path,
            classifier: Classifier::compile(config),
            config: config.clone(),
            fs,
            receipts,
            net: SimNetwork::new(LinkSpec::default()),
            tracker: RetryTracker::new(RetryPolicy::default(), 1),
            server,
            sim,
            clock,
            n: 0,
        }
    }

    /// Replay one matched input, deposited at `now`, through every layer
    /// its deposit and delivery cross on this workload.
    #[allow(clippy::too_many_arguments)]
    pub fn file(
        &mut self,
        tr: &mut Tracer,
        root: SpanId,
        id: u64,
        now: TimePoint,
        name: &str,
        payload: &[u8],
        feed: &str,
    ) {
        self.n += 1;
        self.sim.set(now);
        tr.span("probe.classify", root, id, || {
            black_box(self.classifier.classify(black_box(name)));
        });
        let owned = payload.to_vec();
        tr.span("probe.prepare", root, id, || {
            black_box(parallel::prepare(
                &self.classifier,
                &self.config,
                &self.clock,
                name,
                owned,
            ))
            .expect("a name the workload deposits prepares");
        });
        if self.path.seal {
            tr.span("probe.seal", root, id, || {
                black_box(container::seal(Codec::Lzss, black_box(payload)));
            });
        }
        let path = format!("probe/{name}");
        tr.span("probe.vfs_write", root, id, || {
            self.fs.write(&path, payload).expect("MemFs write");
        });
        self.fs.remove(&path).expect("just written");

        let feeds = vec![feed.to_string()];
        let staged = format!("{feed}/{name}");
        let file = tr.span("probe.record_arrival", root, id, || {
            self.receipts
                .record_arrival(name, &staged, payload.len() as u64, now, Some(now), feeds)
                .expect("scratch WAL append")
        });
        tr.span("probe.record_delivery", root, id, || {
            self.receipts
                .record_delivery(file, "probe_sub", now)
                .expect("scratch WAL append");
        });
        // keep the scratch store from growing into the measurement
        self.receipts
            .record_expiration(file, now)
            .expect("scratch WAL append");

        if self.path.network {
            let ack = Message::Reliable(ReliableMsg::Ack {
                file: FileId(self.n),
                attempt: 1,
            });
            tr.span("probe.net_send_recv", root, id, || {
                let at = self.net.send(now, "probe_a", "probe_b", ack);
                black_box(self.net.recv_ready("probe_b", at));
            });
            let msg = SubscriberMsg::FileDelivered {
                file: FileId(self.n),
                feed: feed.to_string(),
                dest_path: staged,
                size: payload.len() as u64,
            };
            tr.span("probe.track_ack", root, id, || {
                let attempt = self.tracker.track("probe_sub", FileId(self.n), msg, now);
                black_box(self.tracker.on_ack("probe_sub", FileId(self.n), attempt));
            });
        }
        self.unknown(tr, root, id, &unmatched_name(name), payload);
        if self.n.is_multiple_of(HOUSEKEEP_EVERY) {
            self.receipts.snapshot().expect("scratch snapshot");
        }
    }

    /// Deposit one unmatched name singly on the side server (it parks in
    /// `unknown/` and feeds the analyzer), then drop the parked copy.
    fn unknown(&mut self, tr: &mut Tracer, root: SpanId, id: u64, name: &str, payload: &[u8]) {
        let Some(server) = self.server.as_mut() else {
            return;
        };
        tr.span("probe.unknown", root, id, || {
            server
                .deposit(name, payload)
                .expect("an unmatched name parks, it does not fail");
        });
        server
            .store()
            .remove(&format!("unknown/{name}"))
            .expect("an unmatched name is parked in unknown/");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Gen, START};

    #[test]
    fn the_probe_stray_name_matches_no_feed() {
        let ingest = bistro_config::parse_config(&crate::ingest::config_source(true)).unwrap();
        let classifier = Classifier::compile(&ingest);
        let mut g = Gen::new(1, "probe");
        let f = g.ingest_file(START, 1);
        assert_eq!(classifier.classify(&f.name).len(), 1);
        assert!(classifier.classify(&unmatched_name(&f.name)).is_empty());
        assert!(classifier.classify(&g.stray_file(START, 1).name).is_empty());

        let fanout = bistro_config::parse_config(crate::fanout::FEED_BLOCK).unwrap();
        let classifier = Classifier::compile(&fanout);
        let tick = g.fanout_name(START);
        assert_eq!(classifier.classify(&tick).len(), 1);
        assert!(classifier.classify(&unmatched_name(&tick)).is_empty());
    }
}
