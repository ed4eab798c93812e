//! Bounded ingress accounting for the overload-control layer.
//!
//! The engine cannot remove an already-scheduled delivery from its global
//! event queue, so "shed the oldest" is implemented *deferredly*: at
//! overflow the newest tuple is admitted and a [`ShedPolicy`] marker is
//! pushed onto the target operator's pending-shed queue; the next delivery
//! to arrive at that operator (necessarily the oldest in flight) is
//! dead-lettered instead of processed. Queue depth is conserved (+1
//! admitted, −1 condemned), so every queue stays ≤ its bound at all times.
//!
//! [`IngressTable`] tracks, per `(deployment, operator)`: the current
//! in-flight depth, the pending-shed markers, and a per-monitor-window
//! high-watermark that feeds backlog-driven re-placement.

use sl_faults::ShedPolicy;
use std::collections::{BTreeMap, VecDeque};

/// Per-operator ingress state.
#[derive(Debug, Default)]
pub struct IngressState {
    /// Scheduled-but-undelivered deliveries bound for this operator.
    pub depth: u64,
    /// Deferred shed markers: each condemns the next-arriving delivery.
    pub pending: VecDeque<ShedPolicy>,
    /// Largest depth seen since the last monitor sample.
    pub high_watermark: u64,
}

/// Admission bookkeeping for every bounded operator queue.
#[derive(Debug, Default)]
pub struct IngressTable {
    map: BTreeMap<(String, String), IngressState>,
    total_inflight: u64,
}

impl IngressTable {
    /// An empty table.
    pub fn new() -> IngressTable {
        IngressTable::default()
    }

    /// Current in-flight depth for one operator queue.
    pub fn depth(&self, dep: &str, op: &str) -> u64 {
        self.map
            .get(&(dep.to_string(), op.to_string()))
            .map(|s| s.depth)
            .unwrap_or(0)
    }

    /// Total in-flight deliveries across every operator queue.
    pub fn total_inflight(&self) -> u64 {
        self.total_inflight
    }

    /// Record an admitted delivery (depth +1, watermark refreshed).
    pub fn admit(&mut self, dep: &str, op: &str) {
        let s = self
            .map
            .entry((dep.to_string(), op.to_string()))
            .or_default();
        s.depth += 1;
        s.high_watermark = s.high_watermark.max(s.depth);
        self.total_inflight += 1;
    }

    /// Condemn the oldest in-flight delivery of this operator: push a
    /// deferred shed marker and release its depth slot immediately (the
    /// marker's arrival consumes no further accounting).
    pub fn condemn_oldest(&mut self, dep: &str, op: &str, policy: ShedPolicy) {
        let s = self
            .map
            .entry((dep.to_string(), op.to_string()))
            .or_default();
        s.pending.push_back(policy);
        s.depth = s.depth.saturating_sub(1);
        self.total_inflight = self.total_inflight.saturating_sub(1);
    }

    /// If this operator has a deferred shed pending, consume it: the
    /// arriving delivery is the condemned one. Its depth slot was already
    /// released at condemnation, so nothing else is decremented.
    pub fn take_pending_shed(&mut self, dep: &str, op: &str) -> Option<ShedPolicy> {
        self.map
            .get_mut(&(dep.to_string(), op.to_string()))?
            .pending
            .pop_front()
    }

    /// Record a delivered (processed) tuple: depth −1.
    pub fn on_processed(&mut self, dep: &str, op: &str) {
        if let Some(s) = self.map.get_mut(&(dep.to_string(), op.to_string())) {
            s.depth = s.depth.saturating_sub(1);
        }
        self.total_inflight = self.total_inflight.saturating_sub(1);
    }

    /// Per-window high-watermarks (operator key → watermark), resetting
    /// each to the *current* depth for the next window.
    pub fn drain_watermarks(&mut self) -> Vec<((String, String), u64)> {
        self.map
            .iter_mut()
            .map(|(k, s)| {
                let hwm = s.high_watermark;
                s.high_watermark = s.depth;
                (k.clone(), hwm)
            })
            .collect()
    }

    /// Every queue's current depth, in key order.
    pub fn depths(&self) -> impl Iterator<Item = (&(String, String), u64)> {
        self.map.iter().map(|(k, s)| (k, s.depth))
    }

    /// The deployment with the lowest priority-then-largest-depth standing
    /// among those with queued work, excluding `except` — the preemption
    /// victim when the global cap is hit. `class_of` maps a deployment to
    /// its priority rank (lower rank sheds first). Within the victim
    /// deployment the deepest queue is chosen (ties: BTreeMap key order).
    pub fn preemption_victim(
        &self,
        except: (&str, &str),
        class_of: impl Fn(&str) -> u8,
    ) -> Option<(String, String)> {
        self.map
            .iter()
            .filter(|((dep, op), s)| s.depth > 0 && (dep.as_str(), op.as_str()) != except)
            .min_by(|((dep_a, _), sa), ((dep_b, _), sb)| {
                class_of(dep_a)
                    .cmp(&class_of(dep_b))
                    .then(sb.depth.cmp(&sa.depth))
            })
            .map(|(k, _)| k.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_and_process_conserve_depth() {
        let mut t = IngressTable::new();
        t.admit("d", "hot");
        t.admit("d", "hot");
        t.admit("d", "cold");
        assert_eq!(t.depth("d", "hot"), 2);
        assert_eq!(t.total_inflight(), 3);
        t.on_processed("d", "hot");
        assert_eq!(t.depth("d", "hot"), 1);
        assert_eq!(t.total_inflight(), 2);
    }

    #[test]
    fn condemn_releases_slot_and_defers_the_shed() {
        let mut t = IngressTable::new();
        t.admit("d", "hot");
        t.admit("d", "hot");
        // Queue full at 2: condemn the oldest, admit the newest.
        t.condemn_oldest("d", "hot", ShedPolicy::Oldest);
        t.admit("d", "hot");
        assert_eq!(t.depth("d", "hot"), 2); // bound respected

        // The next arrival is the condemned one: consumed, no decrement.
        assert_eq!(t.take_pending_shed("d", "hot"), Some(ShedPolicy::Oldest));
        assert_eq!(t.take_pending_shed("d", "hot"), None);
        assert_eq!(t.depth("d", "hot"), 2);
    }

    #[test]
    fn watermarks_reset_to_current_depth() {
        let mut t = IngressTable::new();
        t.admit("d", "hot");
        t.admit("d", "hot");
        t.on_processed("d", "hot");
        let w: BTreeMap<_, _> = t.drain_watermarks().into_iter().collect();
        assert_eq!(w[&("d".to_string(), "hot".to_string())], 2);
        // After the drain, the watermark restarts from the live depth (1).
        let w: BTreeMap<_, _> = t.drain_watermarks().into_iter().collect();
        assert_eq!(w[&("d".to_string(), "hot".to_string())], 1);
    }

    #[test]
    fn preemption_picks_lowest_class_then_deepest() {
        let mut t = IngressTable::new();
        t.admit("low", "a");
        t.admit("low", "b");
        t.admit("low", "b");
        t.admit("high", "c");
        let class = |dep: &str| if dep == "high" { 3u8 } else { 0 };
        // Lowest class wins; within it the deepest queue.
        assert_eq!(
            t.preemption_victim(("x", "y"), class),
            Some(("low".to_string(), "b".to_string()))
        );
        // The incoming tuple's own queue is excluded.
        assert_eq!(
            t.preemption_victim(("low", "b"), class),
            Some(("low".to_string(), "a".to_string()))
        );
        // Nothing but the excluded queue and higher classes with no depth:
        let mut t2 = IngressTable::new();
        t2.admit("only", "op");
        assert_eq!(t2.preemption_victim(("only", "op"), |_| 0), None);
    }
}
