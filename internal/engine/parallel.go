package engine

import (
	"errors"
	"sync"
	"time"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// errScanClosed aborts a worker's in-flight segment when the operator is
// torn down; it never escapes the operator.
var errScanClosed = errors.New("engine: parallel scan closed")

// The parallel guarded-scan operator: surviving segments of a sequential
// scan are fanned out across a worker pool, each worker zone-checks,
// reads, and filters whole segments (guards + Δ policy checks included)
// with its own executor and counters, and a bounded reorder pipeline hands
// the per-segment results back to the consumer in heap order. The result
// stream is byte-identical to the serial scan's.
//
// The operator runs only underneath exhaustive consumers — aggregation,
// ORDER BY, join inputs, materialising calls without LIMIT — where every
// surviving tuple will be read anyway, so worker read-ahead never inflates
// the work a LIMIT or an early Rows.Close would have avoided. Streaming
// surfaces with early-termination semantics keep the serial scan.
//
// Cancellation and teardown: workers poll the query context and the
// operator's done channel every ctxCheckInterval rows; Close (idempotent,
// also invoked on error and exhaustion) closes done, waits for the pool,
// and only then merges the workers' counters into the query's — so
// counter totals are exact and race-free at flush time.

// parallelScanMinSegments gates the operator: below two surviving-segment
// candidates there is nothing to fan out.
const parallelScanMinSegments = 2

// segTask is one segment handed to a worker; out is buffered (capacity 1)
// so workers never block delivering a finished segment.
type segTask struct {
	seg int
	out chan segResult
}

// segResult is one segment's matching rows, or the error that stopped its
// worker.
type segResult struct {
	rows []storage.Row
	err  error
}

// parallelScanIter operates solely on its captured View — never the live
// table — so a scan is immune to concurrent Compact swaps by construction.
type parallelScanIter struct {
	ex      *executor
	view    *storage.View
	plan    accessPlan
	schema  *RelSchema
	conjs   []sqlparser.Expr
	sc      *scope
	outer   *env
	workers int

	started bool
	closed  bool
	merged  bool
	done    chan struct{}
	ordered chan chan segResult
	wg      sync.WaitGroup
	pool    []*executor // per-worker executors, counters merged at Close

	cur []storage.Row
	pos int
}

// start spins up the feeder and the worker pool. Called lazily on first
// Next so an abandoned iterator costs nothing.
func (it *parallelScanIter) start() {
	it.started = true
	nSegs := it.view.NumSegments()
	workers := it.workers
	if workers > nSegs {
		workers = nSegs
	}
	it.done = make(chan struct{})
	// The ordered channel is the reorder window: it holds per-segment
	// result channels in dispatch (= heap) order and its capacity bounds
	// how far workers may run ahead of the consumer.
	it.ordered = make(chan chan segResult, 2*workers)
	work := make(chan segTask)
	it.ex.counters.SeqScans++
	it.ex.counters.ParallelScans++

	it.pool = make([]*executor, workers)
	for i := range it.pool {
		child := &executor{db: it.ex.db, ctx: it.ex.ctx}
		child.counters = &child.local
		// Workers share the parent's trace spans: Span accumulation is
		// concurrency-safe, so per-segment prune/vector timings from every
		// worker merge into the same phase nodes, and the aggregate worker
		// busy time lands on a "workers" child of the scan span.
		child.span, child.spPrune, child.spVector = it.ex.span, it.ex.spPrune, it.ex.spVector
		it.pool[i] = child
		it.wg.Add(1)
		go it.worker(child, work)
	}

	it.wg.Add(1)
	go func() { // feeder: dispatches segments in heap order
		defer it.wg.Done()
		defer close(it.ordered)
		for seg := 0; seg < nSegs; seg++ {
			tk := segTask{seg: seg, out: make(chan segResult, 1)}
			select {
			case it.ordered <- tk.out:
			case <-it.done:
				return
			}
			select {
			case work <- tk:
			case <-it.done:
				return
			}
		}
		close(work)
	}()
}

func (it *parallelScanIter) worker(child *executor, work <-chan segTask) {
	defer it.wg.Done()
	// Each worker owns its segScan: programs hold scratch state and are
	// single-goroutine.
	s := newSegScan(child, it.view, it.plan, it.schema, it.conjs, &evaluator{ex: child, scope: it.sc}, it.outer, true)
	poll := func() error {
		select {
		case <-it.done:
			return errScanClosed
		default:
		}
		return child.checkCtx()
	}
	for {
		var tk segTask
		var ok bool
		select {
		case tk, ok = <-work:
			if !ok {
				return
			}
		case <-it.done:
			return
		}
		var t0 time.Time
		if child.span != nil {
			t0 = time.Now()
		}
		res, alive := it.scanSegment(child, s, tk.seg, poll)
		if child.span != nil {
			sp := child.span.Child("workers")
			sp.AddSince(t0)
			sp.Count("segments", 1)
		}
		if !alive {
			return // done closed mid-segment; consumer is gone
		}
		tk.out <- res
		if res.err != nil {
			return
		}
	}
}

// scanSegment loads one segment through the worker's segScan and, on the
// row path, filters it with the worker's own evaluator and counters. alive
// is false when the operator was closed mid-scan (no result is delivered;
// nobody is waiting).
func (it *parallelScanIter) scanSegment(child *executor, s *segScan, seg int, poll func() error) (segResult, bool) {
	err := s.load(seg, poll)
	switch {
	case errors.Is(err, errScanClosed):
		return segResult{}, false
	case err != nil:
		return segResult{err: err}, true
	case s.prog != nil:
		rows := s.buf
		s.buf = nil // handed to the consumer; the next segment loads into a fresh slice
		return segResult{rows: rows}, true
	}
	var out []storage.Row
	for i, row := range s.buf {
		if i%ctxCheckInterval == 0 {
			select {
			case <-it.done:
				return segResult{}, false
			default:
			}
		}
		if err := child.checkCtx(); err != nil {
			return segResult{err: err}, true
		}
		child.local.TuplesRead++
		keep, err := rowPasses(s.ev, it.schema, row, it.conjs, it.outer)
		if err != nil {
			return segResult{err: err}, true
		}
		if keep {
			out = append(out, row)
		}
	}
	return segResult{rows: out}, true
}

func (it *parallelScanIter) Next() (storage.Row, error) {
	if it.closed {
		return nil, nil
	}
	if !it.started {
		it.start()
	}
	for {
		if it.pos < len(it.cur) {
			row := it.cur[it.pos]
			it.pos++
			return row, nil
		}
		ch, ok := <-it.ordered
		if !ok {
			it.Close()
			return nil, nil
		}
		res := <-ch
		if res.err != nil {
			it.Close()
			return nil, res.err
		}
		it.cur, it.pos = res.rows, 0
	}
}

// Close stops the feeder and every worker, waits for them to exit, and
// merges their counters into the query's. Idempotent; called on early
// teardown, on error, and on exhaustion.
func (it *parallelScanIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.cur, it.pos = nil, 0
	if !it.started {
		return
	}
	close(it.done)
	it.wg.Wait()
	if !it.merged {
		it.merged = true
		for _, child := range it.pool {
			it.ex.counters.Add(child.local)
		}
	}
}

// parallelSafeConjuncts reports whether the filter can run on worker
// goroutines: subquery expressions are excluded because their evaluation
// threads through the (unsynchronised) CTE scope and re-enters the
// executor. Plain predicates, and UDF calls — the Δ operator's path — are
// safe: registered UDFs must be safe for concurrent invocation, which the
// engine's own (and SIEVE's Δ) are.
func parallelSafeConjuncts(conjs []sqlparser.Expr) bool {
	for _, cj := range conjs {
		unsafe := false
		sqlparser.Walk(cj, false, func(x sqlparser.Expr) {
			switch s := x.(type) {
			case *sqlparser.SubqueryExpr, *sqlparser.ExistsExpr:
				unsafe = true
			case *sqlparser.InExpr:
				if s.Sub != nil {
					unsafe = true
				}
			}
		})
		if unsafe {
			return false
		}
	}
	return true
}
