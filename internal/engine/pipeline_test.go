package engine

import (
	"context"
	"errors"
	"testing"

	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// TestTracedScanSpansMatchCounters checks that a traced sequential scan
// attributes its work to the prune and vector spans exactly as the
// counters do, on the serial cursor and on the parallel operator alike:
// both run the same per-segment routine.
func TestTracedScanSpansMatchCounters(t *testing.T) {
	db := buildSegDB(t, 16*256, 256)
	const q = "SELECT grp, count(*) FROM p WHERE id < 1000 AND val > 3 GROUP BY grp"
	for _, workers := range []int{1, 2} {
		db.ScanWorkers = workers
		db.ResetCounters()
		root := obs.NewTrace("query")
		if _, err := db.QueryCtx(obs.WithSpan(context.Background(), root), q); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		root.Finish()
		c := db.CountersSnapshot()
		if c.SegmentsPruned == 0 || c.BatchesVectorised == 0 {
			t.Fatalf("workers=%d: fixture pruned %d segments and vectorised %d batches; want both > 0",
				workers, c.SegmentsPruned, c.BatchesVectorised)
		}
		if want := int64(workers - 1); c.ParallelScans != want {
			t.Fatalf("workers=%d: ParallelScans = %d, want %d", workers, c.ParallelScans, want)
		}
		node := root.Node()
		if got := node.Find("prune").Counts["segments"]; got != c.SegmentsPruned {
			t.Errorf("workers=%d: prune span counts %d segments, SegmentsPruned = %d", workers, got, c.SegmentsPruned)
		}
		if got := node.Find("vector").Counts["batches"]; got != c.BatchesVectorised {
			t.Errorf("workers=%d: vector span counts %d batches, BatchesVectorised = %d", workers, got, c.BatchesVectorised)
		}
	}
}

// buildKeyDB creates table "k" of n rows whose key column is the same
// value in every row, so a self equi-join on it matches n*n pairs.
func buildKeyDB(t *testing.T, n int) *DB {
	t.Helper()
	db := New(MySQL())
	schema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "key", Type: storage.KindInt},
	)
	if _, err := db.CreateTable("k", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, storage.Row{storage.NewInt(int64(i)), storage.NewInt(7)})
	}
	if err := db.BulkInsert("k", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestJoinStreamCancellation cancels a streamed cross join and a hash join
// on one shared key after their first row: the per-output-row ticks must
// stop either within the check interval, however many rows the inner side
// or the skewed key would still produce.
func TestJoinStreamCancellation(t *testing.T) {
	db := buildKeyDB(t, 400)
	for _, q := range []string{
		"SELECT a.id, b.id FROM k AS a, k AS b",
		"SELECT a.id, b.id FROM k AS a, k AS b WHERE a.key = b.key",
	} {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := db.Stream(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !rows.Next() {
			t.Fatalf("%s: no first row (err %v)", q, rows.Err())
		}
		cancel()
		n := 0
		for rows.Next() {
			n++
		}
		if !errors.Is(rows.Err(), context.Canceled) {
			t.Fatalf("%s: Err = %v, want Canceled", q, rows.Err())
		}
		if n > 4*ctxCheckInterval {
			t.Fatalf("%s: %d rows produced after cancellation (interval %d)", q, n, ctxCheckInterval)
		}
		rows.Close()
	}
}

// TestJoinLimitReadsInputs pins the drain promise of a join: its scans are
// opened exhaustive (vectorised and, with workers, parallel), so a LIMIT
// above the join must not change the work they do.
func TestJoinLimitReadsInputs(t *testing.T) {
	db := buildSegDB(t, 4096, 256)
	const join = "SELECT a.id, b.id FROM p AS a, p AS b WHERE a.id = b.val AND a.grp < 5 AND b.grp > 2"
	for _, workers := range []int{1, 2} {
		db.ScanWorkers = workers
		db.ResetCounters()
		if _, err := db.Query(join); err != nil {
			t.Fatal(err)
		}
		full := db.CountersSnapshot()
		db.ResetCounters()
		res, err := db.Query(join + " LIMIT 3")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("workers=%d: LIMIT 3 returned %d rows", workers, len(res.Rows))
		}
		if got := db.CountersSnapshot(); got != full {
			t.Fatalf("workers=%d: counters under LIMIT differ:\nlimit: %+v\nfull:  %+v", workers, got, full)
		}
	}
}

// TestExplainVectorisedMatchesExecution holds EXPLAIN's "vec" marker to
// what executing the same statement does: for each sequentially scanned
// table, Vectorised must equal BatchesVectorised > 0.
func TestExplainVectorisedMatchesExecution(t *testing.T) {
	db := buildSegDB(t, 4096, 256)
	schema := storage.MustSchema(
		storage.Column{Name: "grp", Type: storage.KindInt},
		storage.Column{Name: "w", Type: storage.KindInt},
	)
	if _, err := db.CreateTable("q", schema); err != nil {
		t.Fatal(err)
	}
	db.MustTable("q").SetSegmentSize(64)
	var qrows []storage.Row
	for i := 0; i < 640; i++ {
		qrows = append(qrows, storage.Row{storage.NewInt(int64(i % 10)), storage.NewInt(int64(i))})
	}
	if err := db.BulkInsert("q", qrows); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql string
		vec bool // with vectorisation allowed
	}{
		{"SELECT id FROM p WHERE val > 3", true},
		{"SELECT id FROM p WHERE val > 3 LIMIT 5", false},
		{"SELECT grp, count(*) FROM p WHERE val > 3 GROUP BY grp", true},
		{"SELECT grp, count(*) FROM p WHERE val > 3 GROUP BY grp LIMIT 2", true},
		{"SELECT id FROM p WHERE val > 3 ORDER BY val LIMIT 5", true},
		{"SELECT p.id, q.w FROM p, q WHERE p.grp = q.grp AND p.val > 3 AND q.w < 50", true},
		{"SELECT p.id, q.w FROM p, q WHERE p.grp = q.grp AND p.val > 3 AND q.w < 50 LIMIT 5", true},
	}
	for _, forceRow := range []bool{false, true} {
		db.ForceRowEval = forceRow
		for _, tc := range cases {
			stmt, err := sqlparser.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := db.Explain(stmt)
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			db.ResetCounters()
			if _, err := db.QueryStmt(stmt); err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			ran := db.CountersSnapshot().BatchesVectorised > 0
			if want := tc.vec && !forceRow; ran != want {
				t.Fatalf("ForceRowEval=%v %s: executed vectorised = %v, want %v", forceRow, tc.sql, ran, want)
			}
			seq := 0
			for _, ta := range plan.Tables {
				if ta.Kind != AccessSeq {
					continue
				}
				seq++
				if ta.Vectorised != ran {
					t.Errorf("ForceRowEval=%v %s: EXPLAIN marks %s vec=%v, execution vectorised=%v",
						forceRow, tc.sql, ta.Table, ta.Vectorised, ran)
				}
			}
			if seq == 0 {
				t.Fatalf("%s: no sequentially scanned table in the plan", tc.sql)
			}
		}
	}
}
