package core

import (
	"reflect"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
)

// TestGuardCacheLeavesRelationsFlat pins that the guard cache lives in
// memory only: New adds no relation to the catalog, and regeneration
// under grant/revoke churn writes no rows anywhere outside the policy
// store, so no heap grows with the number of regenerations.
func TestGuardCacheLeavesRelationsFlat(t *testing.T) {
	db := engine.New(engine.MySQL())
	db.UDFOverheadIters = 0
	loadCampus(t, db)
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.BulkLoad(campusPolicies(42, 30)); err != nil {
		t.Fatal(err)
	}
	before := db.TableNames()
	m, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	if after := db.TableNames(); !reflect.DeepEqual(after, before) {
		t.Errorf("New changed the catalog: %v, want %v", after, before)
	}
	if err := m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	qm := policy.Metadata{Querier: "prof", Purpose: "attendance"}
	if _, err := m.Execute(selectAll, qm); err != nil {
		t.Fatal(err)
	}

	slots := func() map[string]int {
		out := make(map[string]int)
		for _, name := range db.TableNames() {
			if name == policy.TableP || name == policy.TableOC {
				continue
			}
			out[name] = db.MustTable(name).View().NumSlots()
		}
		return out
	}
	want := slots()
	regens := m.CacheStats().GuardRegens
	const cycles = 200
	for i := 0; i < cycles; i++ {
		p := newPolicy(int64(1+i%5), 100)
		if err := m.AddPolicy(p); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Execute(selectAll, qm); err != nil {
			t.Fatal(err)
		}
		if err := m.RevokePolicy(p.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Execute(selectAll, qm); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.CacheStats().GuardRegens - regens; got < cycles {
		t.Fatalf("%d regenerations over %d cycles; churn did not regenerate", got, cycles)
	}
	if got := slots(); !reflect.DeepEqual(got, want) {
		t.Fatalf("heap slots after %d grant/revoke cycles = %v, want %v", cycles, got, want)
	}
}

// TestPolicyEpochCountsVisibilityChanges pins what /varz policy_epoch
// reports: one step per Protect, policy insert, revocation and
// InvalidateAll, whether or not any claim was affected.
func TestPolicyEpochCountsVisibilityChanges(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 10)
	epoch := func() int64 { return f.m.CacheStats().PolicyEpoch }
	if got := epoch(); got != 1 {
		t.Fatalf("epoch after one Protect = %d, want 1", got)
	}
	p := newPolicy(1, 100)
	if err := f.m.AddPolicy(p); err != nil {
		t.Fatal(err)
	}
	if err := f.m.RevokePolicy(p.ID); err != nil {
		t.Fatal(err)
	}
	f.m.InvalidateAll()
	if err := f.m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	if got := epoch(); got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}
}
