package main

import (
	"context"
	"fmt"
	"time"

	"github.com/sieve-db/sieve/internal/loadgen"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
)

type liveGrant struct {
	id      int64
	revoked func() // tells the gate the grant is gone
}

// opRecord is what the untraced run keeps of one op.
type opRecord struct {
	kind   opKind
	done   time.Duration // since the untraced run began
	lat    time.Duration
	rows   int
	digest uint64
	failed bool
}

// harness drives one environment with one closed-loop client, which sends
// its next op only after the previous one has completed, and holds every
// result to the correctness gate.
type harness struct {
	e    *env
	ck   *loadgen.Checker
	gate *grantGate
	ex   executor
	st   *stream
	live []liveGrant // oldest first
	recs []opRecord

	errors     []string
	mismatches int // results that differ between two paths of one op
}

func newHarness(sp *spec, e *env, seed int64) (*harness, error) {
	ck, err := loadgen.NewChecker(e.sc, 10)
	if err != nil {
		return nil, err
	}
	h := &harness{e: e, ck: ck, gate: newGrantGate(e.sc), st: sp.stream(e, seed)}
	if sp.wire {
		h.ex = wire{e}
	} else {
		h.ex = newInproc(e.m)
	}
	return h, nil
}

func (h *harness) noteError(format string, args ...any) {
	if len(h.errors) < 10 {
		h.errors = append(h.errors, fmt.Sprintf(format, args...))
	}
}

// violations totals the checker's and the grant gate's violations and
// returns their samples.
func (h *harness) violations() (int64, []string) {
	v, samples := h.ck.Violations()
	return v.Total() + h.gate.violations, append(samples, h.gate.samples...)
}

// prelude runs the stream's untimed opening ops.
func (h *harness) prelude(ctx context.Context) error {
	for _, o := range h.st.prelude {
		if r := h.runOp(ctx, o, nil); r.failed {
			return fmt.Errorf("prelude op failed: %v", h.errors)
		}
	}
	return nil
}

// checkRead holds a read's rows to the checker and the grant gate; qStart
// is the checker's clock before the read began.
func (h *harness) checkRead(o op, qStart int64, out readOut) {
	h.ck.CheckRows(o.querier, qStart, loadgen.Query{Name: o.name, SQL: o.sql, RowCheck: o.rowCheck},
		out.rows, out.cols)
	if o.rowCheck && !o.deny {
		h.gate.check(o.querier, qStart, h.ck.Clock(), out.rows, out.cols)
	}
}

// runOp executes one op, times it from the call to its last row or
// acknowledgement, and checks what it returned. With a recorder it also
// traces the op.
func (h *harness) runOp(ctx context.Context, o op, rec *recorder) opRecord {
	var t *opTrace
	if rec != nil {
		t = rec.newOp(o.kind)
		t.deny = o.deny
	}
	// done closes the op's root span as soon as the call returns, so the
	// gate's checks stay outside it.
	done := func() {
		if t != nil {
			rec.finish(t)
		}
	}
	r := opRecord{kind: o.kind}
	switch o.kind {
	case opRead:
		if w, ok := h.ex.(wire); ok {
			// Open the session outside the timed region.
			if _, err := w.e.wireSession(ctx, o.querier); err != nil {
				done()
				h.noteError("%v", err)
				r.failed = true
				return r
			}
		}
		qStart := h.ck.Clock()
		t0 := time.Now()
		out, err := h.ex.read(ctx, o, t)
		r.lat = time.Since(t0)
		done()
		if err != nil {
			h.noteError("read %s as %s: %v", o.name, o.querier, err)
			r.failed = true
			return r
		}
		h.checkRead(o, qStart, out)
		r.rows, r.digest = len(out.rows), digest(out.rows)
		if t != nil {
			t.rows = r.rows
		}
	case opGrant:
		entry := h.ck.WillGrant(o.grant.Querier, o.grant.Owner)
		g, err := h.gate.granted(o.grant, h.ck.Clock())
		if err != nil {
			done()
			h.noteError("grant to %s: %v", o.grant.Querier, err)
			r.failed = true
			return r
		}
		a0, f0 := h.walNanos()
		sp := t.begin("policy.write")
		t0 := time.Now()
		id, err := h.ex.grant(ctx, o.grant)
		r.lat = time.Since(t0)
		t.end(sp)
		done()
		h.walTimes(t, a0, f0)
		if err != nil {
			h.noteError("grant to %s: %v", o.grant.Querier, err)
			r.failed = true
			return r
		}
		h.live = append(h.live, liveGrant{id: id, revoked: func() {
			h.ck.DidRevoke(entry)
			g.died = h.ck.Clock()
		}})
	case opRevoke:
		if len(h.live) == 0 {
			done()
			h.noteError("revoke: no live grant")
			r.failed = true
			return r
		}
		g := h.live[0]
		h.live = h.live[1:]
		a0, f0 := h.walNanos()
		sp := t.begin("policy.write")
		t0 := time.Now()
		err := h.ex.revoke(ctx, g.id)
		r.lat = time.Since(t0)
		t.end(sp)
		done()
		h.walTimes(t, a0, f0)
		if err != nil {
			h.noteError("revoke %d: %v", g.id, err)
			r.failed = true
			return r
		}
		g.revoked()
	}
	return r
}

func (h *harness) walNanos() (appendNS, fsyncNS int64) {
	return h.e.wal.AppendNanos(), h.e.wal.FsyncNanos()
}

// walTimes records a write's WAL time: append (write plus inline fsync)
// and the fsync within it.
func (h *harness) walTimes(t *opTrace, a0, f0 int64) {
	if t == nil {
		return
	}
	a1, f1 := h.walNanos()
	t.walAppend, t.walFsync = a1-a0, f1-f0
}

// limits bound the untraced run. Its first warmOps ops are a warm-up:
// they are checked and recorded, and the live heap is read after them,
// but no end-to-end timing counts them. The timed phase then runs for at
// least `seconds` and until it holds minReads reads, but never past
// hardCap.
type limits struct {
	warmOps  int
	seconds  time.Duration
	minReads int
	hardCap  time.Duration
}

// measure runs the closed loop. It returns the timed phase [from, to) on
// the clock of opRecord.done and the live heap in MB after the warm-up.
// The forced collection for the heap runs before the timed phase starts.
func (h *harness) measure(ctx context.Context, lim limits) (from, to time.Duration, heapMB float64) {
	reads := 0
	start := time.Now()
	for {
		if len(h.recs) == lim.warmOps {
			heapMB = liveHeapMB()
			from = time.Since(start)
		}
		el := time.Since(start)
		warm := len(h.recs) >= lim.warmOps
		if warm && (el-from >= lim.hardCap || (el-from >= lim.seconds && reads >= lim.minReads)) {
			return from, el, heapMB
		}
		o := h.st.next()
		r := h.runOp(ctx, o, nil)
		r.done = time.Since(start)
		h.recs = append(h.recs, r)
		if warm && o.kind == opRead {
			reads++
		}
	}
}

// replay runs the first n ops of the stream with tracing and returns the
// wall time.
func (h *harness) replay(ctx context.Context, n int, rec *recorder) time.Duration {
	start := time.Now()
	for j := 0; j < n; j++ {
		o := h.st.next()
		r := h.runOp(ctx, o, rec)
		h.recs = append(h.recs, r)
		if w, ok := h.ex.(wire); ok && o.kind == opRead && !r.failed {
			h.shadow(ctx, w.e, o, r, rec)
		}
	}
	return time.Since(start)
}

// shadow repeats a wire read in process, traced: it supplies the read's
// parse, rewrite and engine counts, and its rows must match the wire's.
func (h *harness) shadow(ctx context.Context, e *env, o op, wireRec opRecord, rec *recorder) {
	t := rec.newOp(opShadow)
	t.deny = o.deny
	out, err := newInproc(e.m).read(ctx, o, t)
	rec.finish(t)
	if err != nil {
		h.noteError("in-process shadow of %s: %v", o.name, err)
		return
	}
	t.rows = len(out.rows)
	if digest(out.rows) != wireRec.digest {
		h.noteError("wire and in-process rows differ for %s as %s", o.name, o.querier)
		h.mismatches++
	}
}

// grantGate completes loadgen.Checker for grants with conditions. The
// checker registers a grant by principal and owner only, so while the
// grant lives it accepts any row of that owner. The gate keeps each
// grant's policy and holds every row the checker accepted on a grant's
// account, and no base policy justifies, to that grant's conditions.
type grantGate struct {
	sc       *loadgen.Scenario
	ownerCol int
	byOwner  map[int64][]*gateGrant
	views    map[string]*gateView

	violations int64
	samples    []string
}

// gateGrant is one grant's policy and its lifetime on the checker's clock.
type gateGrant struct {
	principal  string
	compiled   *policy.CompiledSet
	born, died int64 // died is 0 while the grant lives
}

// gateView is one querier's base policies and principal closure.
type gateView struct {
	base       *policy.CompiledSet
	principals map[string]bool
}

func newGrantGate(sc *loadgen.Scenario) *grantGate {
	return &grantGate{sc: sc, ownerCol: sc.Schema.ColumnIndex(policy.OwnerAttr),
		byOwner: map[int64][]*gateGrant{}, views: map[string]*gateView{}}
}

// granted registers a grant about to be made; born is the checker's clock
// after WillGrant.
func (g *grantGate) granted(p *policy.Policy, born int64) (*gateGrant, error) {
	cs, err := policy.CompileSet([]*policy.Policy{p}, g.sc.Schema)
	if err != nil {
		return nil, err
	}
	gg := &gateGrant{principal: p.Querier, compiled: cs, born: born}
	g.byOwner[p.Owner] = append(g.byOwner[p.Owner], gg)
	return gg, nil
}

func (g *grantGate) view(querier string) (*gateView, error) {
	if v, ok := g.views[querier]; ok {
		return v, nil
	}
	qm := policy.Metadata{Querier: querier, Purpose: g.sc.Purpose}
	base, err := policy.CompileSet(policy.Filter(g.sc.BasePolicies, qm, g.sc.Relation, g.sc.Groups), g.sc.Schema)
	if err != nil {
		return nil, err
	}
	v := &gateView{base: base, principals: map[string]bool{querier: true}}
	for _, p := range g.sc.Groups.GroupsOf(querier) {
		v.principals[p] = true
	}
	g.views[querier] = v
	return v, nil
}

// check holds the rows of a SELECT * read that ran within [qStart, qEnd]
// on the checker's clock. Rows no grant covers are left to the checker.
func (g *grantGate) check(querier string, qStart, qEnd int64, rows []storage.Row, cols []string) {
	n := g.sc.Schema.Len()
	if len(cols) != n {
		return
	}
	for _, row := range rows {
		if len(row) != n {
			continue
		}
		owner := row[g.ownerCol].I
		grants := g.byOwner[owner]
		if len(grants) == 0 {
			continue
		}
		v, err := g.view(querier)
		if err != nil {
			g.fail("grant gate: querier %s: %v", querier, err)
			return
		}
		covered, justified := false, false
		for _, gg := range grants {
			if !v.principals[gg.principal] || gg.born > qEnd || (gg.died != 0 && gg.died <= qStart) {
				continue
			}
			covered = true
			if ok, _, err := gg.compiled.EvalOwnerFirstMatch(owner, row, nil); err != nil {
				g.fail("grant gate: querier %s owner %d: %v", querier, owner, err)
			} else if ok {
				justified = true
				break
			}
		}
		if !covered || justified {
			continue
		}
		if ok, _, err := v.base.EvalOwnerFirstMatch(owner, row, nil); err != nil || !ok {
			g.fail("row outside its grant's conditions: querier %s owner %d window [%d,%d]",
				querier, owner, qStart, qEnd)
		}
	}
}

func (g *grantGate) fail(format string, args ...any) {
	g.violations++
	if len(g.samples) < 10 {
		g.samples = append(g.samples, fmt.Sprintf(format, args...))
	}
}
