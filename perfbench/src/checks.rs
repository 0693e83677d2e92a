//! Output checks: the engines' own report invariants, plus digests of the
//! simulated statistics so runs can be compared bit for bit.

use hybridcast_core::async_engine::AsyncReport;
use hybridcast_core::metrics::DisseminationReport;
use hybridcast_core::pull::PushPullReport;

use crate::stats::Digest;

/// Counts checks attempted and failed, keeping the first few failure
/// messages for the log.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure and is only built
    /// when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Checks attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first failure messages.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The hop engine's invariants: `reached <= population`,
    /// `reached + unreached = population`, per-hop new nodes sum to
    /// `reached`, and per-hop messages sum to the message total.
    pub fn sync_report(&mut self, r: &DisseminationReport) {
        let ok = r.reached <= r.population
            && r.reached + r.unreached.len() == r.population
            && r.per_hop_new.iter().sum::<usize>() == r.reached
            && r.per_hop_messages.iter().sum::<usize>() == r.total_messages();
        self.check(ok, || {
            format!(
                "sync report from {} breaks its invariants: reached {} of {}, {} unreached",
                r.origin,
                r.reached,
                r.population,
                r.unreached.len()
            )
        });
    }

    /// The event-driven engine's invariants: `reached <= population`, one
    /// notification time per reached node, per-hop messages sum to the
    /// message total, and drops never exceed sends.
    pub fn async_report(&mut self, r: &AsyncReport) {
        let ok = r.reached <= r.population
            && r.notification_times.len() == r.reached
            && r.per_hop_messages.iter().sum::<usize>() == r.messages_sent
            && r.dropped_loss + r.dropped_partition + r.truncated_sends <= r.messages_sent
            && r.messages_redundant + r.messages_to_dead <= r.messages_sent;
        self.check(ok, || {
            format!(
                "async report breaks its invariants: reached {} of {}, {} sent",
                r.reached, r.population, r.messages_sent
            )
        });
    }

    /// The push–pull engine's invariants: the push phase's own, plus
    /// `reached_after_pull + unreached_after_pull = population`, pull only
    /// adds holders, per-round gains sum to what pull added, and
    /// transfers and lost polls never exceed requests.
    pub fn push_pull_report(&mut self, r: &PushPullReport) {
        self.sync_report(&r.push);
        let ok = r.reached_after_pull + r.unreached_after_pull.len() == r.push.population
            && r.reached_after_pull >= r.push.reached
            && r.per_round_new.iter().sum::<usize>() == r.reached_after_pull - r.push.reached
            && r.pull_transfers <= r.pull_requests
            && r.polls_lost + r.polls_blocked <= r.pull_requests;
        self.check(ok, || {
            format!(
                "push-pull report breaks its invariants: reached {} of {} after pull",
                r.reached_after_pull, r.push.population
            )
        });
    }
}

/// Feeds the simulated statistics of a hop-engine report.
pub fn digest_sync(d: &mut Digest, r: &DisseminationReport) {
    d.u64(r.origin.as_u64());
    d.usize(r.population);
    d.usize(r.reached);
    d.usize(r.last_hop);
    d.usize(r.messages_to_virgin);
    d.usize(r.messages_to_notified);
    d.usize(r.messages_to_dead);
    d.series(&r.per_hop_new);
    d.series(&r.per_hop_messages);
}

/// Feeds the simulated statistics of an event-driven report.
pub fn digest_async(d: &mut Digest, r: &AsyncReport) {
    d.usize(r.population);
    d.usize(r.reached);
    d.usize(r.messages_sent);
    d.usize(r.messages_redundant);
    d.usize(r.messages_to_dead);
    d.usize(r.dropped_loss);
    d.usize(r.dropped_partition);
    d.usize(r.truncated_sends);
    d.u64(u64::from(r.truncated));
    d.f64(r.completion_time.unwrap_or(-1.0));
    d.series(&r.per_hop_messages);
}

/// Feeds the simulated statistics of a push–pull report.
pub fn digest_push_pull(d: &mut Digest, r: &PushPullReport) {
    digest_sync(d, &r.push);
    d.usize(r.pull_rounds);
    d.usize(r.pull_requests);
    d.usize(r.pull_transfers);
    d.usize(r.reached_after_pull);
    d.usize(r.polls_lost);
    d.usize(r.polls_blocked);
    d.series(&r.per_round_new);
}
