package engine

import (
	"fmt"
	"strings"
	"time"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// rowIter is the pull-based iterator the executor's streaming pipeline is
// built from. Next returns (nil, nil) once the stream is exhausted; any
// error (including context cancellation) terminates the stream. Close
// releases upstream resources and must be idempotent.
type rowIter interface {
	Next() (storage.Row, error)
	Close()
}

// Rows is a streaming query result: tuples are produced on demand as Next
// is called instead of being materialised up front. Closing early (or a
// LIMIT running out) stops the underlying scan, so abandoned queries do
// not pay for rows never read. A Rows is not safe for concurrent use; run
// concurrent queries through separate Rows.
//
// The usual loop:
//
//	rows, err := sess.Query(ctx, "SELECT id FROM t")
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		r := rows.Row()
//		...
//	}
//	if err := rows.Err(); err != nil { ... }
type Rows struct {
	cols   []string
	it     rowIter
	ex     *executor
	db     *DB
	cur    storage.Row
	err    error
	closed bool
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row. It returns false when the stream is
// exhausted, an error occurred (see Err), or the Rows was closed.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	var t0 time.Time
	if r.ex.span != nil {
		t0 = time.Now()
	}
	row, err := r.it.Next()
	if r.ex.span != nil {
		r.ex.span.AddSince(t0)
	}
	if err != nil {
		r.err = err
		r.release()
		return false
	}
	if row == nil {
		r.release()
		return false
	}
	r.cur = row
	return true
}

// Row returns the current row. Valid until the next call to Next; the
// caller must not mutate it.
func (r *Rows) Row() storage.Row { return r.cur }

// Scan copies the current row into dest, one destination per column.
// Destinations may be *storage.Value or *any (accept any column,
// including NULL), *int64 (INT, TIME, DATE), *float64 (any numeric),
// *string (VARCHAR, the raw stored string), or *bool (BOOL). A NULL or a
// kind the destination cannot hold is an error, never a silent zero.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("engine: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("engine: Scan expects %d destinations, got %d", len(r.cur), len(dest))
	}
	for i, d := range dest {
		v := r.cur[i]
		switch p := d.(type) {
		case *storage.Value:
			*p = v
			continue
		case *any:
			*p = v
			continue
		}
		if v.IsNull() {
			return fmt.Errorf("engine: Scan: column %q is NULL; scan into *storage.Value to observe NULLs", r.cols[i])
		}
		mismatch := func() error {
			return fmt.Errorf("engine: Scan: cannot store %s column %q in %T", v.K, r.cols[i], d)
		}
		switch p := d.(type) {
		case *int64:
			switch v.K {
			case storage.KindInt, storage.KindTime, storage.KindDate:
				*p = v.I
			default:
				return mismatch()
			}
		case *float64:
			switch v.K {
			case storage.KindInt, storage.KindFloat, storage.KindTime, storage.KindDate:
				*p = v.Float()
			default:
				return mismatch()
			}
		case *string:
			if v.K != storage.KindString {
				return mismatch()
			}
			*p = v.S
		case *bool:
			if v.K != storage.KindBool {
				return mismatch()
			}
			*p = v.Bool()
		default:
			return fmt.Errorf("engine: unsupported Scan destination %T for column %q", d, r.cols[i])
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any. Context
// cancellation surfaces here as the context's error.
func (r *Rows) Err() error { return r.err }

// Counters returns a snapshot of this query's private work counters
// (tuples read, segments pruned, policy evaluations, …) accumulated so
// far. The same counters merge into the DB accumulators when the Rows is
// released, so the snapshot attributes work to one query without racing
// concurrent sessions.
func (r *Rows) Counters() Counters { return r.ex.local }

// AddCounters folds externally measured work into this query's private
// counters before they merge into the DB accumulators at release. The
// middleware uses it to attach rewrite-layer cache effectiveness (guard
// and plan cache hits/misses) to the query that experienced it. Call
// before iterating: the counters are owned by the query's goroutine.
func (r *Rows) AddCounters(c Counters) { r.ex.local.Add(c) }

// Close stops iteration and releases the underlying scan. It is
// idempotent and safe after exhaustion.
func (r *Rows) Close() error {
	r.release()
	return nil
}

// release tears the pipeline down exactly once and flushes the query's
// work counters into the database's accumulators.
func (r *Rows) release() {
	if r.closed {
		return
	}
	r.closed = true
	r.cur = nil
	r.it.Close()
	r.ex.flush(r.db)
}

// drain consumes an iterator to completion, closing it.
func drainIter(it rowIter) ([]storage.Row, error) {
	defer it.Close()
	var rows []storage.Row
	for {
		row, err := it.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return rows, nil
		}
		rows = append(rows, row)
	}
}

// sliceIter yields from a materialised row slice.
type sliceIter struct {
	ex   *executor
	rows []storage.Row
	pos  int
}

func (it *sliceIter) Next() (storage.Row, error) {
	if err := it.ex.checkCtx(); err != nil {
		return nil, err
	}
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	row := it.rows[it.pos]
	it.pos++
	return row, nil
}

func (it *sliceIter) Close() {}

// tableIter is a streaming base-table access path: rows are pulled from a
// copy-on-write heap View (segment by segment for sequential scans, with
// zone-map and owner-dictionary pruning; fetch-list order for index scans)
// and filtered by the source's conjuncts as they are produced. Reading
// through the View makes an in-flight scan safe across a concurrent
// Compact: it finishes over the heap it started on.
//
// Under an exhaustive consumer a sequential scan evaluates its conjuncts
// on the vectorised batch path (one storage.Batch per segment) instead of
// row-at-a-time; streaming consumers keep the lazy per-row filter so an
// early Close never pays for rows the consumer did not pull.
type tableIter struct {
	ex         *executor
	t          *storage.Table
	plan       accessPlan
	schema     *RelSchema
	conjs      []sqlparser.Expr
	ev         *evaluator
	outer      *env
	exhaustive bool

	inited bool
	view   *storage.View
	// sequential segment cursor (nil for index scans)
	seq *segScan
	seg int
	pos int
	// index fetch list
	ids   []storage.RowID
	idPos int
}

func (it *tableIter) init() {
	it.inited = true
	it.view = it.t.View()
	if it.plan.fetch == nil {
		it.ex.counters.SeqScans++
		it.seq = newSegScan(it.ex, it.view, it.plan, it.schema, it.conjs, it.ev, it.outer, it.exhaustive)
		return
	}
	it.ids = it.plan.fetch(it.view, it.ex.counters)
}

// nextSegment loads the next segment with rows to hand out; ok is false
// when the heap is exhausted.
func (it *tableIter) nextSegment() (bool, error) {
	for it.seg < it.view.NumSegments() {
		seg := it.seg
		it.seg++
		if err := it.seq.load(seg, nil); err != nil {
			return false, err
		}
		if len(it.seq.buf) > 0 {
			it.pos = 0
			return true, nil
		}
	}
	return false, nil
}

func (it *tableIter) Next() (storage.Row, error) {
	if !it.inited {
		it.init()
	}
	for {
		if err := it.ex.checkCtx(); err != nil {
			return nil, err
		}
		var row storage.Row
		if it.seq != nil {
			if it.pos >= len(it.seq.buf) {
				ok, err := it.nextSegment()
				if err != nil {
					return nil, err
				}
				if !ok {
					return nil, nil
				}
			}
			row = it.seq.buf[it.pos]
			it.pos++
			if it.seq.prog != nil {
				// Vectorised segments arrive filtered and counted.
				return row, nil
			}
		} else {
			if it.idPos >= len(it.ids) {
				return nil, nil
			}
			r, ok := it.view.Get(it.ids[it.idPos])
			it.idPos++
			if !ok {
				continue
			}
			row = r
		}
		it.ex.counters.TuplesRead++
		keep, err := rowPasses(it.ev, it.schema, row, it.conjs, it.outer)
		if err != nil {
			return nil, err
		}
		if keep {
			return row, nil
		}
	}
}

func (it *tableIter) Close() {}

// segScan is a sequential scan's per-segment routine, shared by the
// serial cursor (tableIter) and every parallel scan worker: the zone-map
// and owner-dictionary check, the scan counters and the prune and vector
// trace spans, and the vectorised or row load. It holds scratch state (the
// compiled vector program among it), so each worker owns one.
type segScan struct {
	ex         *executor // receives the counters and spans
	view       *storage.View
	plan       accessPlan
	schema     *RelSchema
	ev         *evaluator
	outer      *env
	zbuf       []storage.ZoneMap
	wantOwners bool        // some zone leaf can use the owner dictionaries
	prog       *vecProgram // nil: row-at-a-time
	batch      storage.Batch
	buf        []storage.Row
}

// newSegScan prepares a scan of view; vectorise compiles the conjuncts for
// the batch evaluator unless the DB forces row evaluation.
func newSegScan(ex *executor, view *storage.View, plan accessPlan, schema *RelSchema, conjs []sqlparser.Expr,
	ev *evaluator, outer *env, vectorise bool) *segScan {

	s := &segScan{
		ex: ex, view: view, plan: plan, schema: schema, ev: ev, outer: outer,
		zbuf:       make([]storage.ZoneMap, len(plan.zoneCols)),
		wantOwners: hasOwnerLeaf(plan.zonePreds, view.OwnerColumn()),
	}
	if vectorise && !ex.db.ForceRowEval {
		s.prog, _ = compileVecProgram(conjs, schema)
	}
	return s
}

// load reads segment seg into buf. A segment the zone maps or owner
// dictionaries refute leaves buf empty without touching a tuple. On the
// vectorised path buf holds the rows passing the conjuncts, already
// counted; on the row path it holds every live row for the caller to
// filter and count. poll, when non-nil, is threaded into the vector
// program for cancellation between conjuncts.
func (s *segScan) load(seg int, poll func() error) error {
	ex := s.ex
	s.buf = s.buf[:0]
	var t0 time.Time
	if ex.spPrune != nil {
		t0 = time.Now()
	}
	refuted, dict := segmentRefuted(s.view, seg, s.plan.zonePreds, s.plan.zoneCols, s.zbuf, s.wantOwners)
	ex.spPrune.AddSince(t0)
	if refuted {
		ex.counters.SegmentsPruned++
		ex.spPrune.Count("segments", 1)
		if dict {
			ex.counters.OwnerDictPruned++
			ex.spPrune.Count("owner_dict", 1)
		}
		return nil
	}
	if s.prog == nil {
		s.buf = s.view.ScanSegment(seg, s.buf)
		ex.counters.SegmentsScanned++
		return nil
	}
	if ex.spVector != nil {
		defer ex.spVector.AddSince(time.Now())
	}
	n := s.view.ScanBatch(seg, &s.batch)
	ex.counters.SegmentsScanned++
	if n == 0 {
		return nil
	}
	ex.counters.TuplesRead += int64(n)
	ex.counters.BatchesVectorised++
	ex.counters.RowsVectorised += int64(n)
	ex.spVector.Count("batches", 1)
	ve := &vecEnv{b: &s.batch, ev: s.ev, schema: s.schema, outer: s.outer, ownerCol: s.view.OwnerColumn(), poll: poll}
	if s.prog.needsOwners && ve.ownerCol >= 0 {
		ve.owners, ve.hasOwners = s.view.Owners(seg)
	}
	if err := s.prog.run(ve); err != nil {
		return err
	}
	s.buf = selectedRows(&s.batch, s.buf)
	return nil
}

// selectedRows appends the batch's selected rows to dst.
func selectedRows(b *storage.Batch, dst []storage.Row) []storage.Row {
	for i, sel := range b.Sel {
		if sel {
			dst = append(dst, b.Row(i))
		}
	}
	return dst
}

// hashJoinIter joins the probe stream (the join chain so far) with one
// more FROM entry on equi-join keys. The build side is drained into a hash
// table on the first Next; the probe side streams, so the output keeps the
// probe's row order, each probe row's matches in build order.
type hashJoinIter struct {
	ex           *executor
	probe, build rowIter
	lkeys, rkeys []int
	table        map[string][]storage.Row // nil until the build side is drained
	b            strings.Builder
	lrow         storage.Row
	matches      []storage.Row // lrow's build rows not yet joined
}

func (it *hashJoinIter) Next() (storage.Row, error) {
	if it.table == nil {
		if err := it.fill(); err != nil {
			return nil, err
		}
	}
	for {
		if len(it.matches) > 0 {
			// Per-match tick: a skewed key matching millions of build
			// rows must still honour cancellation within the interval.
			if err := it.ex.checkCtx(); err != nil {
				return nil, err
			}
			r := it.matches[0]
			it.matches = it.matches[1:]
			return concatRows(it.lrow, r), nil
		}
		lrow, err := it.probe.Next()
		if err != nil || lrow == nil {
			return nil, err
		}
		if err := it.ex.checkCtx(); err != nil {
			return nil, err
		}
		if k, ok := joinKey(&it.b, lrow, it.lkeys); ok {
			it.lrow, it.matches = lrow, it.table[k]
		}
	}
}

// fill drains the build side into the hash table.
func (it *hashJoinIter) fill() error {
	defer it.build.Close()
	table := make(map[string][]storage.Row)
	for {
		row, err := it.build.Next()
		if err != nil {
			return err
		}
		if row == nil {
			it.table = table
			return nil
		}
		if err := it.ex.checkCtx(); err != nil {
			return err
		}
		if k, ok := joinKey(&it.b, row, it.rkeys); ok {
			table[k] = append(table[k], row)
		}
	}
}

func (it *hashJoinIter) Close() {
	it.probe.Close()
	it.build.Close()
}

// joinKey encodes row's key columns; ok is false when one is NULL, which
// equals nothing.
func joinKey(b *strings.Builder, row storage.Row, keys []int) (string, bool) {
	b.Reset()
	for _, k := range keys {
		if row[k].IsNull() {
			return "", false
		}
		encodeValue(b, row[k])
	}
	return b.String(), true
}

// crossJoinIter pairs every row of the left stream with every row of the
// inner side, which it drains on the first Next.
type crossJoinIter struct {
	ex          *executor
	left, inner rowIter
	rows        []storage.Row // the drained inner side
	filled      bool
	lrow        storage.Row
	pos         int
}

func (it *crossJoinIter) Next() (storage.Row, error) {
	if !it.filled {
		rows, err := drainIter(it.inner)
		if err != nil {
			return nil, err
		}
		it.rows, it.filled = rows, true
	}
	for {
		if it.lrow != nil && it.pos < len(it.rows) {
			// Per-output-row tick: cancellation latency must not scale
			// with the inner side's size.
			if err := it.ex.checkCtx(); err != nil {
				return nil, err
			}
			r := it.rows[it.pos]
			it.pos++
			return concatRows(it.lrow, r), nil
		}
		lrow, err := it.left.Next()
		if err != nil || lrow == nil {
			return nil, err
		}
		it.lrow, it.pos = lrow, 0
	}
}

func (it *crossJoinIter) Close() {
	it.left.Close()
	it.inner.Close()
}

// exhaustIter reads its stream to the end once started, even when the
// consumer stops early. Joins and set operations open their inputs
// exhaustive (see scansExhaustive), which lets vectorised and parallel
// scans read whole segments ahead of the consumer; draining keeps that
// promise, so the work counters do not depend on where a LIMIT or an
// early Close cut the output.
type exhaustIter struct {
	src           rowIter
	started, done bool
}

func (it *exhaustIter) Next() (storage.Row, error) {
	it.started = true
	row, err := it.src.Next()
	if err != nil || row == nil {
		it.done = true
	}
	return row, err
}

func (it *exhaustIter) Close() {
	for it.started && !it.done {
		// An error ends the drain; the consumer has its rows already.
		_, _ = it.Next()
	}
	it.src.Close()
}

// concatIter yields each input stream in turn (UNION ALL).
type concatIter struct {
	srcs []rowIter
}

func (it *concatIter) Next() (storage.Row, error) {
	for len(it.srcs) > 0 {
		row, err := it.srcs[0].Next()
		if err != nil || row != nil {
			return row, err
		}
		it.srcs[0].Close()
		it.srcs = it.srcs[1:]
	}
	return nil, nil
}

func (it *concatIter) Close() {
	for _, src := range it.srcs {
		src.Close()
	}
	it.srcs = nil
}

// filterIter applies conjuncts to a stream: a derived source's pushed-down
// conjuncts, or those a join binds.
type filterIter struct {
	src    rowIter
	schema *RelSchema
	conjs  []sqlparser.Expr
	ev     *evaluator
	outer  *env
}

func (it *filterIter) Next() (storage.Row, error) {
	for {
		row, err := it.src.Next()
		if err != nil || row == nil {
			return nil, err
		}
		keep, err := rowPasses(it.ev, it.schema, row, it.conjs, it.outer)
		if err != nil {
			return nil, err
		}
		if keep {
			return row, nil
		}
	}
}

func (it *filterIter) Close() { it.src.Close() }

// projIter evaluates each input row's output row (see outputRow).
type projIter struct {
	src    rowIter
	core   *sqlparser.SelectCore
	alias  map[string]int
	schema *RelSchema
	ev     *evaluator
	outer  *env
}

func (it *projIter) Next() (storage.Row, error) {
	row, err := it.src.Next()
	if err != nil || row == nil {
		return nil, err
	}
	return outputRow(it.ev, &env{schema: it.schema, row: row, outer: it.outer}, it.core, it.alias)
}

func (it *projIter) Close() { it.src.Close() }

// distinctIter suppresses duplicate rows, keeping first occurrences. Rows
// compare on their first width columns (0: all of them). For MINUS, except
// is the right arm: drained on the first Next, its rows are suppressed too.
type distinctIter struct {
	src, except rowIter
	width       int
	seen        map[string]struct{}
}

func (it *distinctIter) Next() (storage.Row, error) {
	if it.seen == nil {
		seen := make(map[string]struct{})
		if it.except != nil {
			rows, err := drainIter(it.except)
			if err != nil {
				return nil, err
			}
			for _, row := range rows {
				seen[rowKey(row)] = struct{}{}
			}
		}
		it.seen = seen
	}
	for {
		row, err := it.src.Next()
		if err != nil || row == nil {
			return nil, err
		}
		key := row
		if it.width > 0 {
			key = row[:it.width]
		}
		k := rowKey(key)
		if _, dup := it.seen[k]; dup {
			continue
		}
		it.seen[k] = struct{}{}
		return row, nil
	}
}

func (it *distinctIter) Close() {
	it.src.Close()
	if it.except != nil {
		it.except.Close()
	}
}

// offsetIter discards the first skip rows of the stream (LIMIT ... OFFSET).
// It sits upstream of limitIter so the limit counts delivered rows only.
type offsetIter struct {
	src  rowIter
	skip int64
}

func (it *offsetIter) Next() (storage.Row, error) {
	for it.skip > 0 {
		row, err := it.src.Next()
		if err != nil || row == nil {
			it.skip = 0
			return nil, err
		}
		it.skip--
	}
	return it.src.Next()
}

func (it *offsetIter) Close() { it.src.Close() }

// limitIter stops the stream after n rows, closing the upstream scan so a
// satisfied LIMIT terminates the query early (§5's amortisation carries to
// execution: work is proportional to rows delivered, not rows stored).
type limitIter struct {
	src  rowIter
	n    int64
	done bool
}

func (it *limitIter) Next() (storage.Row, error) {
	if it.done || it.n <= 0 {
		it.Close()
		return nil, nil
	}
	row, err := it.src.Next()
	if err != nil || row == nil {
		return nil, err
	}
	it.n--
	if it.n == 0 {
		it.Close()
	}
	return row, nil
}

func (it *limitIter) Close() {
	if !it.done {
		it.done = true
		it.src.Close()
	}
}

// cteIter wraps a lazily-streamed WITH body so its errors name the CTE.
type cteIter struct {
	src  rowIter
	name string
}

func (it *cteIter) Next() (storage.Row, error) {
	row, err := it.src.Next()
	if err != nil {
		return nil, fmt.Errorf("in WITH %s: %w", it.name, err)
	}
	return row, nil
}

func (it *cteIter) Close() { it.src.Close() }
