package core

import (
	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/policy"
)

// guardedExpressionFor returns the guard state for a key, applying the
// §5.1/§6 freshness rules through the signature-sharing cache. The bool
// reports whether the resolution was a cache hit (a valid claim).
func (m *Middleware) guardedExpressionFor(qm policy.Metadata, relation string) (*geState, []*policy.Policy, bool, error) {
	key := geKey{querier: qm.Querier, purpose: qm.Purpose, relation: relation}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resolveClaimLocked(key)
}

// resolveClaimLocked is the heart of signature sharing. Caller holds m.mu.
//
//   - valid claim → serve its state (plus §6 pending arms) with no store
//     access at all;
//   - invalid or missing claim → recompute the applicable policy set, and
//     in signature order: share an existing state generated for the exact
//     same id set; else, under a §6 regeneration interval, keep the
//     claim's stale state with the insert-only delta appended as pending
//     arms while it stays below k̃; else generate a fresh state for the
//     signature.
//
// The corpus is always filtered with the middleware-wide group resolver:
// states are shared across sessions, so a session's pinned older
// resolution must never populate them.
func (m *Middleware) resolveClaimLocked(key geKey) (*geState, []*policy.Policy, bool, error) {
	c := m.claims[key]
	if c != nil && c.valid {
		m.stats.guardHits++
		return c.state, m.pendingPoliciesLocked(c), true, nil
	}
	m.stats.guardMisses++
	ps := m.store.PoliciesFor(policy.Metadata{Querier: key.querier, Purpose: key.purpose}, key.relation, m.groups)
	ids := policyIDs(ps)
	hash := signatureHash(ids)
	if c == nil {
		c = &claim{key: key}
		m.claims[key] = c
		m.registerClaimLocked(c)
		m.evictClaimsLocked(c)
	}
	if st := m.lookupStateLocked(key.relation, hash, ids); st != nil {
		m.bindClaimLocked(c, st, true)
		return st, nil, false, nil
	}
	// §6 deferred regeneration: reuse the stale expression with the new
	// grants appended as owner arms until the insertion count reaches k̃.
	// Only insert-only deltas qualify; revocation-shaped changes (or a
	// forced regen) fall through to generation.
	if c.state != nil && !c.state.gone && !m.eagerRegen && !c.forceRegen {
		if pend, ok := diffSuperset(ids, c.state.ids); ok && len(pend) < m.optimalK(c.state) {
			c.pendingIDs = pend
			c.valid = true
			return c.state, m.pendingPoliciesLocked(c), false, nil
		}
	}
	st, err := m.generateStateLocked(key, ps, ids, hash)
	if err != nil {
		return nil, nil, false, err
	}
	m.bindClaimLocked(c, st, false)
	return st, nil, false, nil
}

// generateStateLocked builds and indexes a fresh shared state for a
// signature. Caller holds m.mu. key is only the representative claim that
// generated it; the state itself is keyed by signature.
func (m *Middleware) generateStateLocked(key geKey, ps []*policy.Policy, ids []int64, hash uint64) (*geState, error) {
	sel, err := m.selectivityFor(key.relation)
	if err != nil {
		return nil, err
	}
	ge, err := guard.GenerateWithOptions(ps, key.relation, key.querier, key.purpose, sel, m.cm, m.genOpts)
	if err != nil {
		return nil, err
	}
	m.nextStateID++
	st := &geState{
		ge: ge, relation: key.relation, ids: ids, hash: hash,
		stateID: m.nextStateID, reprKey: key,
		deltaSets: make(map[int]int64),
	}
	// Register Δ check sets for guards above the threshold (§5.4).
	schema := m.db.MustTable(key.relation).Schema
	for gi := range ge.Guards {
		g := &ge.Guards[gi]
		if m.deltaThreshold > 0 && len(g.Policies) > m.deltaThreshold {
			id, err := m.registerCheckSetLocked(g.Policies, key.relation, schema)
			if err != nil {
				return nil, err
			}
			st.setIDs = append(st.setIDs, id)
			st.deltaSets[gi] = id
		}
	}
	sk := stateKey{relation: key.relation, hash: hash}
	m.states[sk] = append(m.states[sk], st)
	m.stats.guardRegens++
	return st, nil
}

// InvalidateAll retires every shared guard state and force-invalidates
// every claim; mainly for tests, administrative resets, and
// group-membership changes (the scoped index is built from membership at
// claim-creation time).
func (m *Middleware) InvalidateAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.scopedInvalidations++
	for _, bucket := range m.states {
		for _, st := range append([]*geState(nil), bucket...) {
			m.removeStateLocked(st)
		}
	}
	for _, c := range m.claims {
		m.invalidateClaimLocked(c, true)
	}
}

// GuardedExpression exposes the key's current guarded expression for
// inspection (experiments, cmd/sieve-explain). It does not trigger
// regeneration. The expression may be shared: its Querier/Purpose fields
// name the claim that generated it, not necessarily the one asking.
func (m *Middleware) GuardedExpression(qm policy.Metadata, relation string) (*guard.GuardedExpression, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.claims[geKey{querier: qm.Querier, purpose: qm.Purpose, relation: relation}]
	if !ok || c.state == nil {
		return nil, false
	}
	return c.state.ge, true
}

// Regens reports how many distinct guard generations the key has been
// bound to — shared bindings count once, so queriers riding an existing
// signature see 1 without having paid a generation.
func (m *Middleware) Regens(qm policy.Metadata, relation string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.claims[geKey{querier: qm.Querier, purpose: qm.Purpose, relation: relation}]
	if !ok {
		return 0
	}
	return c.gens
}
