//! Cycle-level invariant auditor.
//!
//! The whole measurement methodology rests on the claim that the probe
//! words coming out of [`crate::Cluster::step`] faithfully describe what
//! the simulated machine did that cycle. This module is the independent
//! oracle for that claim: under the `audit` feature, every stepped cycle is
//! cross-checked against conservation laws the machine must obey —
//!
//! * the probe word is structurally well-formed (no activity lines or bus
//!   opcodes above the configured cluster width);
//! * `active_mask` agrees exactly with the per-CE CCB roles;
//! * crossbar grants never exceed capacity (a grant implies a request, at
//!   most one grant per bank per cycle, and the granted bank is claimed);
//! * no requester starves beyond a bounded wait, neither at the crossbar
//!   nor at the CCB grant channel (dependence waits via `AwaitSync` and
//!   join waits are legitimately unbounded and excluded);
//! * CCB loop bookkeeping only moves along legal edges (`done ≤ next ≤
//!   total`, at most one dispatch per cycle, completions bounded by the
//!   cluster width, the sync register monotone);
//! * per-CE execution states transition only along the edges the hardware
//!   has (e.g. a miss stall may not release before its fill completes);
//! * the memory-bus start record stays strictly ordered (one start per
//!   cycle, the arbitration rule the probe decodes);
//! * cache coherence keeps a single dirty/unique owner per line.
//!
//! The monitor adds an end-to-end layer on top: after each acquisition it
//! compares the reduced [`EventCounts`](../../fx8_monitor/reduce) deltas
//! against the simulator's own ground-truth counters and files mismatches
//! here via `Cluster::audit_note_violation` (compiled under the same
//! feature).
//!
//! With the feature off (the default), none of this code is compiled into
//! the stepper and [`crate::Cluster::audit_report`] returns an empty
//! report — the zero-allocation hot path is unchanged. With the feature on,
//! the checks themselves are allocation-free (fixed-size scratch, reused
//! buffers); only an actual violation formats strings.

use serde::{Deserialize, Serialize};

/// Cap on individually-recorded violations per report; a systematically
/// broken invariant would otherwise flood memory at one violation per
/// cycle. Overflow is counted, not lost.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Machine cycle at which the check failed.
    pub cycle: u64,
    /// Component whose invariant failed (e.g. `crossbar`, `ce.transition`).
    pub component: String,
    /// What the invariant required.
    pub expected: String,
    /// What the machine actually showed.
    pub actual: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle {} [{}] expected {}; got {}",
            self.cycle, self.component, self.expected, self.actual
        )
    }
}

/// Accumulated audit findings for one machine (or one session).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Cycles the auditor examined.
    pub checked_cycles: u64,
    /// Recorded violations, capped at [`MAX_RECORDED_VIOLATIONS`].
    pub violations: Vec<Violation>,
    /// Violations beyond the cap (counted but not recorded).
    pub dropped_violations: u64,
}

impl AuditReport {
    /// Whether no invariant was ever violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped_violations == 0
    }

    /// Total violations observed, including dropped ones.
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.dropped_violations
    }

    /// Fold another report into this one (study-level pooling).
    pub fn merge(&mut self, other: &AuditReport) {
        self.checked_cycles += other.checked_cycles;
        for v in &other.violations {
            if self.violations.len() < MAX_RECORDED_VIOLATIONS {
                self.violations.push(v.clone());
            } else {
                self.dropped_violations += 1;
            }
        }
        self.dropped_violations += other.dropped_violations;
    }
}

#[cfg(feature = "audit")]
pub(crate) use active::Auditor;

#[cfg(feature = "audit")]
mod active {
    use super::{AuditReport, Violation, MAX_RECORDED_VIOLATIONS};
    use crate::ce::{CeRole, CeState};
    use crate::cluster::Cluster;
    use crate::crossbar::Requests;
    use crate::probe::ProbeWord;
    use crate::{Cycle, LaneWord};

    /// Consecutive cycles a CE may be denied the crossbar while requesting
    /// before the auditor calls it starvation. Fixed-priority arbitration
    /// can legitimately deny a low-priority CE for long contended bursts;
    /// a logic error (a requester the arbiter never sees) is unbounded.
    const XBAR_WAIT_BOUND: u32 = 25_000;

    /// Consecutive cycles a CE may wait on the CCB grant channel. Grants
    /// take `ccb_grant_cycles` (~12) each, so even a full cluster queueing
    /// behind one channel clears in ~100 cycles.
    const ITER_WAIT_BOUND: u32 = 10_000;

    /// End-of-cycle CE state, for legal-edge checking.
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct CeSnap {
        role: CeRole,
        state: CeState,
    }

    /// The per-cluster invariant checker. Owned by the `Cluster` and
    /// invoked at the end of every stepped cycle.
    #[derive(Default)]
    pub(crate) struct Auditor {
        report: AuditReport,
        /// CE snapshots from the previous stepped cycle.
        prev: Vec<CeSnap>,
        prev_valid: bool,
        /// CCB `(next, done, total)` from the previous stepped cycle.
        prev_ccb: Option<(u64, u64, u64)>,
        prev_sync: u64,
        /// Consecutive crossbar denials per CE.
        xbar_streak: Vec<u32>,
        /// Consecutive cycles per CE spent in `AwaitIter`.
        iter_streak: Vec<u32>,
    }

    impl Auditor {
        pub(crate) fn report(&self) -> &AuditReport {
            &self.report
        }

        /// The cluster was externally re-mounted or its clock jumped:
        /// cross-cycle state (snapshots, streaks) no longer applies.
        pub(crate) fn note_external_change(&mut self) {
            self.prev_valid = false;
            self.prev_ccb = None;
            self.xbar_streak.iter_mut().for_each(|s| *s = 0);
            self.iter_streak.iter_mut().for_each(|s| *s = 0);
        }

        /// File a violation detected outside the stepper (the monitor's
        /// ground-truth cross-checks).
        pub(crate) fn external_violation(
            &mut self,
            cycle: Cycle,
            component: &str,
            expected: String,
            actual: String,
        ) {
            self.push(cycle, component, expected, actual);
        }

        fn push(&mut self, cycle: Cycle, component: &str, expected: String, actual: String) {
            if self.report.violations.len() < MAX_RECORDED_VIOLATIONS {
                self.report.violations.push(Violation {
                    cycle,
                    component: component.to_string(),
                    expected,
                    actual,
                });
            } else {
                self.report.dropped_violations += 1;
            }
        }

        /// Check every per-cycle invariant. Called by `Cluster::step_cycle`
        /// after probe assembly, with the cycle's crossbar request table
        /// and granted lanes (`won`) still in hand.
        pub(crate) fn check_cycle(
            &mut self,
            cl: &mut Cluster,
            word: &ProbeWord,
            reqs: &Requests,
            won: LaneWord,
        ) {
            let now = word.cycle;
            let n = cl.ces.len();
            if self.xbar_streak.len() != n {
                self.xbar_streak = vec![0; n];
                self.iter_streak = vec![0; n];
            }
            self.report.checked_cycles += 1;

            // Probe word shape: nothing above the cluster width.
            if let Err(e) = word.check_wellformed(n) {
                self.push(now, "probe", "well-formed probe word".into(), e);
            }

            // CCB activity lines agree with the CE roles.
            let mut expect_mask: LaneWord = 0;
            for (id, ce) in cl.ces.iter().enumerate() {
                if ce.is_ccb_active() {
                    expect_mask |= 1 << id;
                }
            }
            if expect_mask != word.active_mask {
                self.push(
                    now,
                    "probe.active_mask",
                    format!("{expect_mask:#b} (from CE roles)"),
                    format!("{:#b}", word.active_mask),
                );
            }

            // Crossbar: grants within capacity.
            if let Err(e) = cl.crossbar.audit_check(now, reqs, won) {
                self.push(now, "crossbar", "grants within capacity".into(), e);
            }

            // Bounded waits.
            let denied = reqs.pending & !won;
            for id in 0..n {
                if denied >> id & 1 != 0 {
                    self.xbar_streak[id] += 1;
                    if self.xbar_streak[id] == XBAR_WAIT_BOUND {
                        self.push(
                            now,
                            "crossbar.starvation",
                            format!("CE{id} granted within {XBAR_WAIT_BOUND} cycles"),
                            format!("denied {XBAR_WAIT_BOUND} consecutive cycles"),
                        );
                    }
                } else {
                    self.xbar_streak[id] = 0;
                }
                if cl.ces[id].state == CeState::AwaitIter {
                    self.iter_streak[id] += 1;
                    if self.iter_streak[id] == ITER_WAIT_BOUND {
                        self.push(
                            now,
                            "ccb.starvation",
                            format!("CE{id} granted an iteration within {ITER_WAIT_BOUND} cycles"),
                            format!("waiting {ITER_WAIT_BOUND} consecutive cycles"),
                        );
                    }
                } else {
                    self.iter_streak[id] = 0;
                }
            }

            // CCB loop bookkeeping.
            if let Some((next, done, total)) = cl.ccb.progress() {
                if !(done <= next && next <= total) {
                    self.push(
                        now,
                        "ccb",
                        "done <= next <= total".into(),
                        format!("next={next} done={done} total={total}"),
                    );
                }
                let sync = cl.ccb.sync_value();
                if let Some((pn, pd, pt)) = self.prev_ccb {
                    if pt == total {
                        if next < pn || next - pn > 1 {
                            self.push(
                                now,
                                "ccb",
                                "at most one iteration dispatched per cycle".into(),
                                format!("next {pn} -> {next}"),
                            );
                        }
                        if done < pd || done - pd > n as u64 {
                            self.push(
                                now,
                                "ccb",
                                format!("0..={n} completions per cycle"),
                                format!("done {pd} -> {done}"),
                            );
                        }
                        if sync < self.prev_sync {
                            self.push(
                                now,
                                "ccb.sync",
                                "monotone synchronization register".into(),
                                format!("{} -> {sync}", self.prev_sync),
                            );
                        }
                    }
                }
                self.prev_ccb = Some((next, done, total));
                self.prev_sync = sync;
            } else {
                self.prev_ccb = None;
            }

            // Per-CE state machine: only hardware edges.
            if self.prev_valid && self.prev.len() == n {
                for id in 0..n {
                    let cur = CeSnap {
                        role: cl.ces[id].role,
                        state: cl.ces[id].state,
                    };
                    if let Err(e) = legal_edge(&self.prev[id], &cur, now) {
                        self.push(now, "ce.transition", format!("CE{id} legal state edge"), e);
                    }
                }
            }
            self.prev.clear();
            self.prev.extend(cl.ces.iter().map(|ce| CeSnap {
                role: ce.role,
                state: ce.state,
            }));
            self.prev_valid = true;

            // Memory-bus start record: strictly one start per cycle.
            if let Err(e) = cl.membus.audit_check() {
                self.push(now, "membus", "strictly increasing start records".into(), e);
            }

            // Coherence violations logged by the cache system this cycle.
            if !cl.caches.audit_log_is_empty() {
                for (line, msg) in cl.caches.take_audit_log() {
                    self.push(
                        now,
                        "cache.coherence",
                        "single dirty/unique owner per line".into(),
                        format!("line {:#x}: {msg}", line.0),
                    );
                }
            }
        }
    }

    /// Whether the hardware has an edge from `prev` to `cur` within one
    /// cycle. `now` is the cycle in which the transition was observed.
    fn legal_edge(prev: &CeSnap, cur: &CeSnap, now: Cycle) -> Result<(), String> {
        use CeState::*;
        if prev.role != cur.role {
            // The only within-step role changes: a worker leaving the loop,
            // either unmounting (iterations exhausted) or promoting to the
            // serial continuation (last-iteration CE / join complete). A
            // promoted CE resumes serial execution in the same cycle, so by
            // cycle end it may already be stalled on a miss or a fault —
            // but it cannot be back in a loop wait state.
            let promoted = matches!(
                (prev.role, cur.role),
                (CeRole::Worker, CeRole::Inactive) | (CeRole::Worker, CeRole::ClusterSerial)
            );
            let from_wait = matches!(prev.state, AwaitIter | AwaitJoin);
            let to_serial = matches!(cur.state, Ready | Stalled { .. } | FaultStalled { .. });
            if promoted && from_wait && to_serial {
                return Ok(());
            }
            return Err(format!(
                "role {:?}/{:?} -> {:?}/{:?}",
                prev.role, prev.state, cur.role, cur.state
            ));
        }
        let ok = match (prev.state, cur.state) {
            (a, b) if a == b => true,
            // Ready may initiate anything: stall, fault, sync, next iter.
            (Ready, _) => true,
            // Grant, chain-delay stall, or last-iteration join wait.
            (AwaitIter, Ready | Stalled { .. } | AwaitJoin) => true,
            // The sync register reached the target.
            (AwaitSync { .. }, Ready) => true,
            // Stalls may only release once their deadline has passed.
            (Stalled { until, .. } | FaultStalled { until }, Ready) => now >= until,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{:?} -> {:?}", prev.state, cur.state))
        }
    }
}
