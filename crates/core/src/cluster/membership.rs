//! Deterministic heartbeat-based failure detection and membership.
//!
//! Every alive host beats once per `heartbeat_every` rounds. The detector
//! (run as part of the lock-step round loop, so it is a pure function of
//! the fault schedule) marks a silent host **Suspect** after
//! `suspect_after` missed beats and **Dead** after `dead_after`; a beat
//! from a restarted host brings it straight back to **Alive**. Each
//! transition bumps the membership-view version, the cluster analogue of
//! an epoch number in a real group-membership protocol: remote-read
//! routing decisions key off the *view*, never off ground truth, so the
//! crashed-but-undetected window (retries, then fallback) and the
//! declared-dead window (degraded peer serving) are modelled faithfully.

/// What the detector currently believes about one host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostStatus {
    /// Beating on schedule.
    Alive,
    /// Missed `suspect_after` beats — reads still try it first.
    Suspect,
    /// Missed `dead_after` beats — reads go straight to peer shards.
    Dead,
}

impl HostStatus {
    /// Stable lowercase name for logs and exports.
    pub fn name(self) -> &'static str {
        match self {
            HostStatus::Alive => "alive",
            HostStatus::Suspect => "suspect",
            HostStatus::Dead => "dead",
        }
    }
}

/// One recorded membership transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MembershipTransition {
    /// Round the detector changed its mind.
    pub round: u64,
    /// The host whose status changed.
    pub host: usize,
    /// Previous status.
    pub from: HostStatus,
    /// New status.
    pub to: HostStatus,
    /// View version after the transition.
    pub version: u64,
}

/// The detector's current picture of the cluster.
#[derive(Clone, Debug)]
pub struct MembershipView {
    /// Per-host status.
    pub status: Vec<HostStatus>,
    /// Monotonic view version; bumps on every status change.
    pub version: u64,
}

impl MembershipView {
    /// Hosts currently believed alive.
    pub fn alive_count(&self) -> usize {
        self.status
            .iter()
            .filter(|s| **s == HostStatus::Alive)
            .count()
    }
}

/// Heartbeat bookkeeping + the view it produces.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    heartbeat_every: u64,
    suspect_after: u64,
    dead_after: u64,
    last_beat: Vec<u64>,
    view: MembershipView,
    log: Vec<MembershipTransition>,
}

impl FailureDetector {
    /// A detector for `num_hosts` hosts, all initially alive with a beat
    /// at round 0.
    pub fn new(
        num_hosts: usize,
        heartbeat_every: u64,
        suspect_after: u64,
        dead_after: u64,
    ) -> Self {
        assert!(heartbeat_every >= 1);
        assert!(suspect_after >= 1 && dead_after >= suspect_after);
        FailureDetector {
            heartbeat_every,
            suspect_after,
            dead_after,
            last_beat: vec![0; num_hosts],
            view: MembershipView {
                status: vec![HostStatus::Alive; num_hosts],
                version: 0,
            },
            log: Vec::new(),
        }
    }

    fn set_status(&mut self, round: u64, host: usize, to: HostStatus) {
        let from = self.view.status[host];
        if from == to {
            return;
        }
        self.view.status[host] = to;
        self.view.version += 1;
        self.log.push(MembershipTransition {
            round,
            host,
            from,
            to,
            version: self.view.version,
        });
    }

    /// Advance one lock-step round: hosts in `alive` beat if the round is
    /// on their heartbeat schedule; silent hosts accrue missed beats and
    /// transition Suspect → Dead at the configured thresholds.
    pub fn tick(&mut self, round: u64, alive: &[bool]) {
        for (host, &up) in alive.iter().enumerate() {
            if up {
                // A beat restores the host in the view; a restarted host
                // stays Suspect/Dead until its next beat slot comes
                // around.
                if round.is_multiple_of(self.heartbeat_every) {
                    self.last_beat[host] = round;
                    self.set_status(round, host, HostStatus::Alive);
                }
            } else {
                let missed = (round.saturating_sub(self.last_beat[host])) / self.heartbeat_every;
                if missed >= self.dead_after {
                    self.set_status(round, host, HostStatus::Dead);
                } else if missed >= self.suspect_after {
                    self.set_status(round, host, HostStatus::Suspect);
                }
            }
        }
    }

    /// Stand in for the ticks of rounds `from + 1 ..= to` while the view
    /// is settled — every host in `alive` Alive, every other host Dead —
    /// so those ticks would only move the live hosts' last beat. Returns
    /// false, and changes nothing, when the view is not settled.
    pub(crate) fn skip_settled(&mut self, from: u64, to: u64, alive: &[bool]) -> bool {
        let settled = alive.iter().zip(&self.view.status).all(|(&up, &status)| {
            let expect = if up {
                HostStatus::Alive
            } else {
                HostStatus::Dead
            };
            status == expect
        });
        if !settled {
            return false;
        }
        let beat = to - to % self.heartbeat_every;
        if beat > from {
            for (last, _) in self.last_beat.iter_mut().zip(alive).filter(|(_, &up)| up) {
                *last = beat;
            }
        }
        true
    }

    /// The current view.
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// Every transition the detector made, in round order.
    pub fn log(&self) -> &[MembershipTransition] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_host_walks_suspect_then_dead_then_rejoins() {
        let mut d = FailureDetector::new(2, 1, 1, 3);
        let mut alive = [true, true];
        d.tick(1, &alive);
        assert_eq!(d.view().status, vec![HostStatus::Alive; 2]);
        assert_eq!(d.view().version, 0);

        alive[1] = false; // crash after its round-1 beat
        d.tick(2, &alive);
        assert_eq!(d.view().status[1], HostStatus::Suspect);
        d.tick(3, &alive);
        assert_eq!(d.view().status[1], HostStatus::Suspect);
        d.tick(4, &alive);
        assert_eq!(d.view().status[1], HostStatus::Dead);
        assert_eq!(d.view().alive_count(), 1);

        alive[1] = true; // restart
        d.tick(5, &alive);
        assert_eq!(d.view().status[1], HostStatus::Alive);
        // Suspect → Dead → Alive = three transitions, three version bumps.
        assert_eq!(d.view().version, 3);
        assert_eq!(d.log().len(), 3);
        assert_eq!(d.log()[2].to, HostStatus::Alive);
    }

    #[test]
    fn heartbeat_cadence_scales_thresholds() {
        // Beats every 2 rounds, suspect after 1 missed beat.
        let mut d = FailureDetector::new(1, 2, 1, 2);
        let alive = [false];
        d.tick(1, &alive); // (1-0)/2 = 0 missed — still alive in view
        assert_eq!(d.view().status[0], HostStatus::Alive);
        d.tick(2, &alive); // 1 missed beat
        assert_eq!(d.view().status[0], HostStatus::Suspect);
        d.tick(4, &alive); // 2 missed beats
        assert_eq!(d.view().status[0], HostStatus::Dead);
    }

    #[test]
    fn a_settled_skip_equals_ticking_every_round() {
        for heartbeat_every in 1..4 {
            for to in 5..15 {
                let alive = [true, false, true];
                let mut ticked = FailureDetector::new(3, heartbeat_every, 1, 2);
                for round in 1..=4 {
                    ticked.tick(round, &alive);
                }
                let mut skipped = ticked.clone();
                let settled = skipped.view().status[1] == HostStatus::Dead;
                assert_eq!(skipped.skip_settled(4, to, &alive), settled);
                for round in 5..=to {
                    ticked.tick(round, &alive);
                }
                if settled {
                    assert_eq!(format!("{skipped:?}"), format!("{ticked:?}"));
                }
                // A host still walking toward Dead keeps the view unsettled.
                let mut fresh = FailureDetector::new(3, heartbeat_every, 1, 8);
                fresh.tick(1, &alive);
                assert!(!fresh.skip_settled(1, to, &alive));
            }
        }
    }
}
