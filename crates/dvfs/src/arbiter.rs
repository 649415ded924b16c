//! Shared socket power-budget arbitration for the multi-tenant
//! capping service.
//!
//! One physical socket has one power budget; N tenants each want a
//! per-tenant cap enforced by their own capping controller. The
//! [`EpochArbiter`] owns the invariant that makes that safe: **the
//! sum of granted per-tenant caps never exceeds the socket cap**, at
//! any point in any sequence of joins, leaves, failsafes, and
//! restores. Allocation is deterministic max-min fair (water-filling):
//! every active tenant gets an equal share of the socket cap, except
//! that nobody is granted more than they requested — surplus from
//! modest tenants flows to the hungry ones.
//!
//! Bulkhead coupling: a tenant whose supervisor enters Failsafe is
//! pinned to its safe VF state and cannot spend its cap, so a deferred
//! [`ArbiterOp::Failsafe`] zeroes its grant and redistributes the
//! freed budget to the survivors; [`ArbiterOp::Restore`] re-admits it
//! on recovery. Admission reserves `min_grant` per registered tenant
//! (failsafed included) so a restore can never be starved by sessions
//! admitted in the meantime.
//!
//! The water-filling itself lives in the crate-private
//! `BudgetArbiter`, the engine [`EpochArbiter`] steps one epoch at a
//! time; its tests pin the invariants above for arbitrary op
//! sequences.

use ppep_types::{Error, RejectReason, Result, Watts};

/// One tenant's budget bookkeeping.
#[derive(Debug, Clone)]
struct TenantBudget {
    id: u64,
    requested_w: f64,
    granted_w: f64,
    failsafed: bool,
}

/// The water-filling engine behind [`EpochArbiter`]: applies each op
/// immediately. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct BudgetArbiter {
    socket_cap_w: f64,
    min_grant_w: f64,
    /// Join order; allocation iterates this deterministically.
    tenants: Vec<TenantBudget>,
}

impl BudgetArbiter {
    /// Builds an arbiter for a socket budget of `socket_cap`,
    /// reserving at least `min_grant` for every registered tenant.
    pub fn new(socket_cap: Watts, min_grant: Watts) -> Self {
        Self {
            socket_cap_w: socket_cap.as_watts().max(0.0),
            min_grant_w: min_grant.as_watts().max(0.0),
            tenants: Vec::new(),
        }
    }

    /// The socket-wide budget.
    pub fn socket_cap(&self) -> Watts {
        Watts::new(self.socket_cap_w)
    }

    /// The per-tenant admission floor.
    pub fn min_grant(&self) -> Watts {
        Watts::new(self.min_grant_w)
    }

    /// Registered tenants (active + failsafed).
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Admits a tenant requesting a cap of `requested`, returning the
    /// granted cap.
    ///
    /// # Errors
    ///
    /// [`Error::Rejected`] with [`RejectReason::DuplicateTenant`] when
    /// `tenant` is already registered, or
    /// [`RejectReason::BudgetExhausted`] when admitting one more
    /// tenant would break the `min_grant` reservation for everyone
    /// registered (failsafed tenants keep their reservation so their
    /// restore cannot be starved).
    pub fn join(&mut self, tenant: u64, requested: Watts) -> Result<Watts> {
        if self.tenants.iter().any(|t| t.id == tenant) {
            return Err(Error::Rejected {
                reason: RejectReason::DuplicateTenant { tenant },
            });
        }
        let reserved = (self.tenants.len() + 1) as f64 * self.min_grant_w;
        if reserved > self.socket_cap_w {
            let available =
                (self.socket_cap_w - self.tenants.len() as f64 * self.min_grant_w).max(0.0);
            return Err(Error::Rejected {
                reason: RejectReason::BudgetExhausted {
                    requested_w: requested.as_watts(),
                    available_w: available,
                },
            });
        }
        self.tenants.push(TenantBudget {
            id: tenant,
            requested_w: requested.as_watts().max(0.0),
            granted_w: 0.0,
            failsafed: false,
        });
        self.rebalance();
        self.granted(tenant).ok_or_else(|| {
            Error::InvalidInput(format!("arbiter: tenant {tenant} vanished during join"))
        })
    }

    /// Deregisters a tenant, redistributing its budget.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when `tenant` is not registered.
    pub fn leave(&mut self, tenant: u64) -> Result<()> {
        let before = self.tenants.len();
        self.tenants.retain(|t| t.id != tenant);
        if self.tenants.len() == before {
            return Err(Error::InvalidInput(format!(
                "arbiter: unknown tenant {tenant}"
            )));
        }
        self.rebalance();
        Ok(())
    }

    /// Marks a tenant failsafed: its grant drops to zero (the safe VF
    /// pin spends no discretionary budget) and the freed watts are
    /// redistributed. Idempotent.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when `tenant` is not registered.
    pub fn failsafe(&mut self, tenant: u64) -> Result<()> {
        let t = self
            .tenants
            .iter_mut()
            .find(|t| t.id == tenant)
            .ok_or_else(|| Error::InvalidInput(format!("arbiter: unknown tenant {tenant}")))?;
        t.failsafed = true;
        self.rebalance();
        Ok(())
    }

    /// Re-admits a recovered tenant to the allocation, returning its
    /// new grant. Idempotent. Always succeeds for a registered tenant:
    /// admission reserved its `min_grant` while it was failsafed.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when `tenant` is not registered.
    pub fn restore(&mut self, tenant: u64) -> Result<Watts> {
        let t = self
            .tenants
            .iter_mut()
            .find(|t| t.id == tenant)
            .ok_or_else(|| Error::InvalidInput(format!("arbiter: unknown tenant {tenant}")))?;
        t.failsafed = false;
        self.rebalance();
        self.granted(tenant).ok_or_else(|| {
            Error::InvalidInput(format!("arbiter: tenant {tenant} vanished during restore"))
        })
    }

    /// The cap currently granted to `tenant` (zero while failsafed),
    /// or `None` when it is not registered.
    pub fn granted(&self, tenant: u64) -> Option<Watts> {
        self.tenants
            .iter()
            .find(|t| t.id == tenant)
            .map(|t| Watts::new(t.granted_w))
    }

    /// Every registered tenant's `(id, granted cap)`, in join order.
    pub fn grants(&self) -> Vec<(u64, Watts)> {
        self.tenants
            .iter()
            .map(|t| (t.id, Watts::new(t.granted_w)))
            .collect()
    }

    /// The aggregate granted budget. Never exceeds
    /// [`BudgetArbiter::socket_cap`].
    pub fn total_granted(&self) -> Watts {
        Watts::new(self.tenants.iter().map(|t| t.granted_w).sum())
    }

    /// Deterministic max-min fair (water-filling) allocation over the
    /// active tenants, each capped at its own request.
    fn rebalance(&mut self) {
        for t in &mut self.tenants {
            t.granted_w = 0.0;
        }
        let mut remaining = self.socket_cap_w;
        let mut unsatisfied: Vec<usize> = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.failsafed)
            .map(|(i, _)| i)
            .collect();
        while !unsatisfied.is_empty() && remaining > 0.0 {
            let round_size = unsatisfied.len();
            let share = remaining / round_size as f64;
            let mut still_hungry = Vec::with_capacity(round_size);
            for i in unsatisfied {
                let Some(t) = self.tenants.get_mut(i) else {
                    continue;
                };
                if t.requested_w <= share {
                    // Fully satisfied at this water level; its surplus
                    // stays in `remaining` for the next round.
                    t.granted_w = t.requested_w;
                    remaining -= t.requested_w;
                } else {
                    still_hungry.push(i);
                }
            }
            if still_hungry.len() == round_size {
                // Nobody was satisfied this round: the water level is
                // final — split the remainder evenly and stop.
                for i in still_hungry {
                    if let Some(t) = self.tenants.get_mut(i) {
                        t.granted_w = share;
                    }
                }
                break;
            }
            unsatisfied = still_hungry;
        }
        // f64 rounding can leave the sum a few ulps above the cap;
        // scale down defensively so the invariant is exact-ish.
        let total: f64 = self.tenants.iter().map(|t| t.granted_w).sum();
        if total > self.socket_cap_w && total > 0.0 {
            let scale = self.socket_cap_w / total;
            for t in &mut self.tenants {
                t.granted_w *= scale;
            }
        }
    }
}

/// One deferred data-plane arbiter operation.
///
/// The sharded serve path buffers these on the shard that observed
/// the health transition (or eviction) and hands them to
/// [`EpochArbiter::defer`] at the tick barrier — the data plane never
/// touches the arbiter directly, so grants cannot depend on which
/// shard's thread got there first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterOp {
    /// The tenant's supervisor entered Failsafe: zero its grant.
    Failsafe,
    /// The tenant recovered: re-admit it to the allocation.
    Restore,
    /// The tenant was evicted: deregister it.
    Leave,
}

/// An immutable, published view of every tenant's grant at one epoch.
///
/// Shards read caps from the snapshot their service last published —
/// never from the live arbiter — so a reply's reported cap is a pure
/// function of (epoch, tenant), independent of shard interleaving.
#[derive(Debug, Clone, Default)]
pub struct GrantSnapshot {
    epoch: u64,
    /// `(tenant, granted watts)`, sorted by tenant id.
    grants: Vec<(u64, f64)>,
    total_w: f64,
}

impl GrantSnapshot {
    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cap granted to `tenant` at this epoch, or `None` when it
    /// was not registered.
    pub fn granted(&self, tenant: u64) -> Option<Watts> {
        self.grants
            .binary_search_by_key(&tenant, |(id, _)| *id)
            .ok()
            .and_then(|i| self.grants.get(i))
            .map(|(_, w)| Watts::new(*w))
    }

    /// The aggregate granted budget at this epoch.
    pub fn total_granted(&self) -> Watts {
        Watts::new(self.total_w)
    }

    /// Registered tenants at this epoch.
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// Whether no tenant was registered at this epoch.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }

    /// Every `(tenant, granted cap)` pair, sorted by tenant id.
    pub fn grants(&self) -> impl Iterator<Item = (u64, Watts)> + '_ {
        self.grants.iter().map(|(id, w)| (*id, Watts::new(*w)))
    }
}

/// The shared socket power-budget arbiter, stepped in epochs — the
/// cross-shard message protocol of the sharded capping service. See
/// the module docs for the allocation and its invariants.
///
/// Two op classes with different timing:
///
/// * **Control-plane ops** ([`EpochArbiter::join`],
///   [`EpochArbiter::leave_now`]) apply immediately and republish the
///   snapshot. Admission and Goodbye already serialize on the
///   service's control plane, so their order is well-defined.
/// * **Data-plane ops** ([`EpochArbiter::defer`]: failsafe, restore,
///   eviction-leave) are buffered and applied at the next
///   [`EpochArbiter::advance`] — the tick barrier. Before applying,
///   the buffer is canonicalized by a *stable* sort on tenant id:
///   per-tenant op order is preserved (a tenant's ops all come from
///   its one home shard, in program order), while cross-tenant
///   arrival order — the only thing shard scheduling can perturb —
///   is discarded. Water-fill grants after `advance` are therefore
///   byte-identical for every interleaving, which the proptest below
///   pins against the plain single-threaded engine that applies each
///   op immediately.
#[derive(Debug, Clone)]
pub struct EpochArbiter {
    inner: BudgetArbiter,
    epoch: u64,
    pending: Vec<(u64, ArbiterOp)>,
    published: GrantSnapshot,
}

impl EpochArbiter {
    /// Builds the arbiter and publishes the (empty) epoch-0 snapshot.
    pub fn new(socket_cap: Watts, min_grant: Watts) -> Self {
        let mut a = Self {
            inner: BudgetArbiter::new(socket_cap, min_grant),
            epoch: 0,
            pending: Vec::new(),
            published: GrantSnapshot::default(),
        };
        a.republish();
        a
    }

    /// The socket-wide budget.
    pub fn socket_cap(&self) -> Watts {
        self.inner.socket_cap()
    }

    /// The per-tenant admission floor.
    pub fn min_grant(&self) -> Watts {
        self.inner.min_grant()
    }

    /// The current epoch (bumped by every [`EpochArbiter::advance`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The last published snapshot.
    pub fn snapshot(&self) -> &GrantSnapshot {
        &self.published
    }

    /// Deferred ops waiting for the next epoch boundary.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// Registered tenants (live arbiter view, deferred ops excluded).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Immediate admission (control plane). Republishes the snapshot
    /// so the new tenant's first replies see its grant.
    ///
    /// # Errors
    ///
    /// [`Error::Rejected`] with [`RejectReason::DuplicateTenant`] when
    /// `tenant` is already registered, or
    /// [`RejectReason::BudgetExhausted`] when admitting one more tenant
    /// would break the `min_grant` reservation for everyone registered.
    pub fn join(&mut self, tenant: u64, requested: Watts) -> Result<Watts> {
        let granted = self.inner.join(tenant, requested)?;
        self.republish();
        Ok(granted)
    }

    /// Immediate deregistration (control plane, Goodbye path). Drops
    /// the tenant's still-pending deferred ops so a later incarnation
    /// under the same id cannot be hit by its predecessor's failsafe.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when `tenant` is not registered.
    pub fn leave_now(&mut self, tenant: u64) -> Result<()> {
        self.inner.leave(tenant)?;
        self.pending.retain(|(id, _)| *id != tenant);
        self.republish();
        Ok(())
    }

    /// Buffers a data-plane op for the next epoch boundary.
    pub fn defer(&mut self, tenant: u64, op: ArbiterOp) {
        self.pending.push((tenant, op));
    }

    /// Applies every deferred op in canonical order, bumps the epoch,
    /// and republishes. An op targeting a tenant that already left is
    /// stale, not an error — it is dropped.
    pub fn advance(&mut self) -> &GrantSnapshot {
        let mut ops = std::mem::take(&mut self.pending);
        // Stable: cross-tenant order becomes ascending id, per-tenant
        // order stays as the home shard produced it.
        ops.sort_by_key(|(tenant, _)| *tenant);
        for (tenant, op) in ops {
            let outcome = match op {
                ArbiterOp::Failsafe => self.inner.failsafe(tenant),
                ArbiterOp::Restore => self.inner.restore(tenant).map(|_| ()),
                ArbiterOp::Leave => self.inner.leave(tenant),
            };
            drop(outcome);
        }
        self.epoch += 1;
        self.republish();
        &self.published
    }

    fn republish(&mut self) {
        let mut grants: Vec<(u64, f64)> = self
            .inner
            .grants()
            .into_iter()
            .map(|(id, w)| (id, w.as_watts()))
            .collect();
        grants.sort_by_key(|(id, _)| *id);
        self.published = GrantSnapshot {
            epoch: self.epoch,
            grants,
            total_w: self.inner.total_granted().as_watts(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arbiter(cap: f64, min: f64) -> BudgetArbiter {
        BudgetArbiter::new(Watts::new(cap), Watts::new(min))
    }

    #[test]
    fn single_tenant_gets_min_of_request_and_cap() {
        let mut a = arbiter(100.0, 10.0);
        assert_eq!(a.join(1, Watts::new(60.0)).unwrap(), Watts::new(60.0));
        let mut b = arbiter(100.0, 10.0);
        assert_eq!(b.join(1, Watts::new(150.0)).unwrap(), Watts::new(100.0));
    }

    #[test]
    fn surplus_flows_to_hungry_tenants() {
        let mut a = arbiter(100.0, 10.0);
        a.join(1, Watts::new(20.0)).unwrap();
        a.join(2, Watts::new(90.0)).unwrap();
        // Equal split would be 50/50, but tenant 1 only wants 20; the
        // other 30 W flow to tenant 2.
        assert_eq!(a.granted(1).unwrap(), Watts::new(20.0));
        assert_eq!(a.granted(2).unwrap(), Watts::new(80.0));
    }

    #[test]
    fn duplicate_and_exhausted_joins_are_typed_rejections() {
        let mut a = arbiter(30.0, 10.0);
        a.join(1, Watts::new(30.0)).unwrap();
        match a.join(1, Watts::new(5.0)).unwrap_err() {
            Error::Rejected {
                reason: RejectReason::DuplicateTenant { tenant },
            } => assert_eq!(tenant, 1),
            other => panic!("wrong rejection {other}"),
        }
        a.join(2, Watts::new(30.0)).unwrap();
        a.join(3, Watts::new(30.0)).unwrap();
        match a.join(4, Watts::new(30.0)).unwrap_err() {
            Error::Rejected {
                reason: RejectReason::BudgetExhausted { available_w, .. },
            } => assert!(available_w < 10.0),
            other => panic!("wrong rejection {other}"),
        }
    }

    #[test]
    fn failsafe_frees_budget_and_restore_reclaims_it() {
        let mut a = arbiter(90.0, 10.0);
        a.join(1, Watts::new(60.0)).unwrap();
        a.join(2, Watts::new(60.0)).unwrap();
        assert_eq!(a.granted(1).unwrap(), Watts::new(45.0));
        assert_eq!(a.granted(2).unwrap(), Watts::new(45.0));
        a.failsafe(1).unwrap();
        assert_eq!(a.granted(1).unwrap(), Watts::ZERO);
        assert_eq!(
            a.granted(2).unwrap(),
            Watts::new(60.0),
            "freed budget flows"
        );
        let back = a.restore(1).unwrap();
        assert_eq!(back, Watts::new(45.0));
        assert_eq!(a.granted(2).unwrap(), Watts::new(45.0));
    }

    #[test]
    fn admission_reserves_for_failsafed_tenants() {
        let mut a = arbiter(30.0, 10.0);
        a.join(1, Watts::new(30.0)).unwrap();
        a.join(2, Watts::new(30.0)).unwrap();
        a.failsafe(1).unwrap();
        a.join(3, Watts::new(30.0)).unwrap();
        // Slots are full even though tenant 1 is failsafed: its
        // min_grant stays reserved so restore cannot be starved.
        assert!(a.join(4, Watts::new(5.0)).is_err());
        assert!(a.restore(1).unwrap() >= Watts::new(10.0));
    }

    /// Decodes one raw u64 into an arbiter operation; used by the
    /// property below to explore arbitrary operation sequences.
    fn apply_op(a: &mut BudgetArbiter, raw: u64) {
        let id = raw % 6;
        let kind = (raw / 6) % 4;
        let request = 5.0 + (raw % 977) as f64 * 0.1;
        match kind {
            0 => {
                let _ = a.join(id, Watts::new(request));
            }
            1 => {
                let _ = a.leave(id);
            }
            2 => {
                let _ = a.failsafe(id);
            }
            _ => {
                let _ = a.restore(id);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For ANY sequence of joins/leaves/failsafes/restores:
        /// the aggregate granted budget never exceeds the socket cap,
        /// nobody is granted more than they asked for, and freed
        /// budget is fully redistributed (the aggregate equals
        /// min(cap, sum of active requests) up to rounding).
        #[test]
        fn budget_invariants_hold_for_any_op_sequence(
            ops in prop::collection::vec(0u64..1_000_000, 1..80),
            cap_raw in 40u64..200,
            min_raw in 0u64..15,
        ) {
            let cap = cap_raw as f64;
            let mut a = arbiter(cap, min_raw as f64);
            for raw in ops {
                apply_op(&mut a, raw);

                let total = a.total_granted().as_watts();
                prop_assert!(
                    total <= cap * (1.0 + 1e-12) + 1e-9,
                    "aggregate {total} exceeds socket cap {cap}"
                );

                let mut active_request_sum = 0.0;
                for t in &a.tenants {
                    prop_assert!(
                        t.granted_w <= t.requested_w + 1e-9,
                        "tenant {} granted {} over request {}",
                        t.id, t.granted_w, t.requested_w
                    );
                    prop_assert!(t.granted_w >= 0.0);
                    if t.failsafed {
                        prop_assert!(t.granted_w == 0.0, "failsafed tenants hold no budget");
                    } else {
                        active_request_sum += t.requested_w;
                    }
                }

                // Full redistribution: nothing claimable is left on
                // the table.
                let claimable = cap.min(active_request_sum);
                prop_assert!(
                    total >= claimable - 1e-6,
                    "aggregate {total} leaves budget unclaimed (claimable {claimable})"
                );
            }
        }

        /// Restore never fails for a registered tenant, whatever was
        /// admitted in the meantime — the min_grant reservation at
        /// admission time guarantees it.
        #[test]
        fn restore_always_succeeds_for_registered_tenants(
            ops in prop::collection::vec(0u64..1_000_000, 1..60),
        ) {
            let mut a = arbiter(120.0, 10.0);
            for raw in ops {
                apply_op(&mut a, raw);
                let ids: Vec<u64> = a.tenants.iter().map(|t| t.id).collect();
                for id in ids {
                    // Probe on a clone so the sequence under test is
                    // not disturbed.
                    let mut probe = a.clone();
                    prop_assert!(probe.restore(id).is_ok());
                }
            }
        }

        /// The tentpole pin: for ANY buffered data-plane op stream and
        /// ANY per-tenant-order-preserving reshuffle of it (i.e. any
        /// shard interleaving), `advance()` publishes grants
        /// byte-identical to the plain single-threaded
        /// [`BudgetArbiter`] fed the ops in canonical order.
        #[test]
        fn advance_is_interleaving_independent_and_pins_the_plain_arbiter(
            raw_ops in prop::collection::vec(0u64..1_000_000, 0..40),
            sched in prop::collection::vec(0u64..1_000_000, 1..40),
            epochs in 1usize..4,
        ) {
            const TENANTS: u64 = 4;
            let decode = |raw: u64| -> (u64, ArbiterOp) {
                let tenant = raw % TENANTS;
                let op = match (raw / TENANTS) % 3 {
                    0 => ArbiterOp::Failsafe,
                    1 => ArbiterOp::Restore,
                    _ => ArbiterOp::Leave,
                };
                (tenant, op)
            };

            let mut plain = arbiter(120.0, 5.0);
            let mut ea = EpochArbiter::new(Watts::new(120.0), Watts::new(5.0));
            let mut eb = EpochArbiter::new(Watts::new(120.0), Watts::new(5.0));
            for tenant in 0..TENANTS {
                let req = Watts::new(15.0 + tenant as f64 * 11.0);
                prop_assert!(plain.join(tenant, req).is_ok());
                prop_assert!(ea.join(tenant, req).is_ok());
                prop_assert!(eb.join(tenant, req).is_ok());
            }

            let chunk = (raw_ops.len() / epochs).max(1);
            for (round, ops) in raw_ops.chunks(chunk).enumerate() {
                // Interleaving A: arrival order as generated.
                let a_stream: Vec<(u64, ArbiterOp)> =
                    ops.iter().map(|raw| decode(*raw)).collect();
                // Interleaving B: an arbitrary reshuffle that keeps
                // each tenant's ops in order — exactly the freedom a
                // shard scheduler has.
                let mut queues: Vec<std::collections::VecDeque<(u64, ArbiterOp)>> =
                    (0..TENANTS).map(|_| std::collections::VecDeque::new()).collect();
                for (tenant, op) in &a_stream {
                    if let Some(q) = queues.get_mut(*tenant as usize) {
                        q.push_back((*tenant, *op));
                    }
                }
                let mut b_stream = Vec::with_capacity(a_stream.len());
                let mut cursor = 0usize;
                while b_stream.len() < a_stream.len() {
                    let pick = sched
                        .get(cursor % sched.len())
                        .copied()
                        .unwrap_or(0) as usize;
                    cursor += 1;
                    let nonempty: Vec<usize> = queues
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| !q.is_empty())
                        .map(|(i, _)| i)
                        .collect();
                    let Some(&qi) = nonempty.get(pick % nonempty.len().max(1)) else {
                        break;
                    };
                    if let Some(q) = queues.get_mut(qi) {
                        if let Some(item) = q.pop_front() {
                            b_stream.push(item);
                        }
                    }
                }
                prop_assert_eq!(a_stream.len(), b_stream.len());

                // Canonical order for the plain arbiter: ascending
                // tenant id, per-tenant program order (what the stable
                // sort inside advance() produces).
                for tenant in 0..TENANTS {
                    for (id, op) in a_stream.iter().filter(|(id, _)| *id == tenant) {
                        let outcome = match op {
                            ArbiterOp::Failsafe => plain.failsafe(*id),
                            ArbiterOp::Restore => plain.restore(*id).map(|_| ()),
                            ArbiterOp::Leave => plain.leave(*id),
                        };
                        drop(outcome);
                    }
                }
                for (tenant, op) in &a_stream {
                    ea.defer(*tenant, *op);
                }
                for (tenant, op) in &b_stream {
                    eb.defer(*tenant, *op);
                }
                let snap_a = ea.advance().clone();
                let snap_b = eb.advance().clone();

                let bits = |s: &GrantSnapshot| -> Vec<(u64, u64)> {
                    s.grants().map(|(id, w)| (id, w.as_watts().to_bits())).collect()
                };
                prop_assert_eq!(
                    bits(&snap_a), bits(&snap_b),
                    "round {}: interleaving changed the grants", round
                );
                let plain_bits: Vec<(u64, u64)> = {
                    let mut v: Vec<(u64, u64)> = plain
                        .grants()
                        .into_iter()
                        .map(|(id, w)| (id, w.as_watts().to_bits()))
                        .collect();
                    v.sort_by_key(|(id, _)| *id);
                    v
                };
                prop_assert_eq!(
                    bits(&snap_a), plain_bits,
                    "round {}: epoch arbiter diverged from the plain arbiter", round
                );
                prop_assert_eq!(
                    snap_a.total_granted().as_watts().to_bits(),
                    plain.total_granted().as_watts().to_bits()
                );
            }
        }
    }

    #[test]
    fn join_and_leave_now_republish_immediately() {
        let mut a = EpochArbiter::new(Watts::new(100.0), Watts::new(10.0));
        assert_eq!(a.snapshot().epoch(), 0);
        assert!(a.snapshot().is_empty());
        a.join(1, Watts::new(60.0)).unwrap();
        assert_eq!(a.snapshot().granted(1), Some(Watts::new(60.0)));
        a.join(2, Watts::new(50.0)).unwrap();
        // Water level moved at admission time, before any advance.
        assert_eq!(a.snapshot().granted(1), Some(Watts::new(50.0)));
        assert_eq!(a.snapshot().granted(2), Some(Watts::new(50.0)));
        assert_eq!(a.snapshot().epoch(), 0, "joins do not bump the epoch");
        a.leave_now(1).unwrap();
        assert_eq!(a.snapshot().granted(1), None);
        assert_eq!(a.snapshot().granted(2), Some(Watts::new(50.0)));
    }

    #[test]
    fn deferred_ops_apply_only_at_the_epoch_boundary() {
        let mut a = EpochArbiter::new(Watts::new(100.0), Watts::new(10.0));
        a.join(1, Watts::new(60.0)).unwrap();
        a.join(2, Watts::new(60.0)).unwrap();
        a.defer(1, ArbiterOp::Failsafe);
        // Snapshot is unchanged until the tick barrier.
        assert_eq!(a.snapshot().granted(1), Some(Watts::new(50.0)));
        assert_eq!(a.pending_ops(), 1);
        let snap = a.advance().clone();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.granted(1), Some(Watts::ZERO));
        assert_eq!(
            snap.granted(2),
            Some(Watts::new(60.0)),
            "freed budget flows"
        );
        assert_eq!(a.pending_ops(), 0);
    }

    #[test]
    fn leave_now_drops_the_tenants_pending_ops() {
        let mut a = EpochArbiter::new(Watts::new(100.0), Watts::new(10.0));
        a.join(1, Watts::new(40.0)).unwrap();
        a.join(2, Watts::new(40.0)).unwrap();
        a.defer(1, ArbiterOp::Failsafe);
        a.defer(2, ArbiterOp::Failsafe);
        a.leave_now(1).unwrap();
        assert_eq!(a.pending_ops(), 1, "tenant 1's pending op is gone");
        // A re-joined incarnation of tenant 1 must not inherit the
        // old failsafe.
        a.join(1, Watts::new(40.0)).unwrap();
        let snap = a.advance().clone();
        assert_eq!(snap.granted(1), Some(Watts::new(40.0)));
        assert_eq!(snap.granted(2), Some(Watts::ZERO));
    }

    #[test]
    fn stale_deferred_ops_are_dropped_not_errors() {
        let mut a = EpochArbiter::new(Watts::new(100.0), Watts::new(10.0));
        a.join(1, Watts::new(40.0)).unwrap();
        a.defer(9, ArbiterOp::Leave); // never registered
        a.defer(1, ArbiterOp::Failsafe);
        a.defer(1, ArbiterOp::Leave); // evicted after failsafing
        let snap = a.advance().clone();
        assert!(snap.is_empty());
        assert_eq!(snap.total_granted(), Watts::ZERO);
    }
}
