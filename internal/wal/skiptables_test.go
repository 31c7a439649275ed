package wal_test

import (
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/wal"
)

// TestSkipTablesExcluded pins Options.SkipTables: a table named there is
// in neither the log nor the snapshot, so it is absent after recovery,
// while every other table's writes are logged and recovered as usual.
func TestSkipTablesExcluded(t *testing.T) {
	const skipped = "scratchpad"
	dir := t.TempDir()
	opts := wal.Options{Sync: wal.SyncNever, CheckpointEvery: -1, SkipTables: []string{skipped}}

	db := newSeedDB(t)
	schema := storage.MustSchema(storage.Column{Name: "k", Type: storage.KindInt})
	if _, err := db.CreateTable(skipped, schema); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(skipped, storage.Row{storage.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	m, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.LogsTable(skipped) || !m.LogsTable(testTable) {
		t.Fatalf("LogsTable(%s)=%v LogsTable(%s)=%v", skipped, m.LogsTable(skipped), testTable, m.LogsTable(testTable))
	}
	// The start snapshot is the only one: CheckpointEvery < 0 and the
	// manager is closed without a checkpoint.
	if err := m.Start(db, func() []string { return []string{testTable} }); err != nil {
		t.Fatal(err)
	}
	db.SetWAL(m)

	appends := m.Varz()["wal_appends"]
	for i := int64(1); i <= 3; i++ {
		id, err := db.InsertRow(skipped, storage.Row{storage.NewInt(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Update(skipped, id, storage.Row{storage.NewInt(10 * i)}); err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(skipped, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Varz()["wal_appends"]; got != appends {
		t.Fatalf("writes to a skipped table appended %d records", got-appends)
	}
	if err := db.Insert(testTable, wifiRow(10, 1, "ap-10")); err != nil {
		t.Fatal(err)
	}
	if got := m.Varz()["wal_appends"]; got != appends+1 {
		t.Fatalf("a logged insert appended %d records, want 1", got-appends)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	db2, rec, _ := reopen(t, dir, opts)
	if _, ok := db2.Table(skipped); ok {
		t.Fatalf("skipped table %q recovered", skipped)
	}
	if rec.Replayed != 1 {
		t.Fatalf("replayed %d records, want the one logged insert", rec.Replayed)
	}
	if n := db2.MustTable(testTable).NumRows(); n != 11 {
		t.Fatalf("recovered %s has %d rows, want 11", testTable, n)
	}
}
