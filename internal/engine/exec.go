package engine

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Result is a materialised query result: the rows of the executor's one
// pipeline, drained into a slice. The pipeline itself buffers only where
// the semantics require it: a hash join's build side, a cross join's inner
// side, GROUP BY, ORDER BY, WITH bodies referenced more than once, and
// MINUS's right arm. Callers that do not need every row at once should
// prefer the streaming surface (DB.StreamStmt and Rows).
type Result struct {
	Columns []string
	Rows    []storage.Row
}

// cteEntry is one WITH-clause relation visible in a scope. An entry is
// either materialised (res set) or lazy (stmt set): a lazy entry is
// registered when the CTE is referenced exactly once and outside any
// expression subquery, and is opened as a stream by that single consumer.
// LIMIT satisfaction and early Rows.Close then terminate the CTE body's
// scan instead of paying to materialise it — the §5.3 guarded projections
// are exactly such single-use CTEs.
type cteEntry struct {
	res      *Result
	stmt     *sqlparser.SelectStmt
	sc       *scope
	outer    *env
	streamed bool
}

// scope tracks the relations visible by name beyond the catalog: WITH
// clauses, nested per statement.
type scope struct {
	parent *scope
	rels   map[string]*cteEntry
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, rels: make(map[string]*cteEntry)}
}

func (sc *scope) lookup(name string) (*cteEntry, bool) {
	for cur := sc; cur != nil; cur = cur.parent {
		if e, ok := cur.rels[name]; ok {
			return e, true
		}
	}
	return nil, false
}

// ctxCheckInterval is how many executor ticks (roughly, per-row
// operations) pass between context polls: cancellation and deadlines are
// honoured within this many rows of work.
const ctxCheckInterval = 64

// executor runs one statement tree. It is not safe for concurrent use;
// every query gets its own executor with its own work counters, merged
// into the DB's accumulators when the query finishes (flush), so
// concurrent sessions never contend on counter updates mid-query.
type executor struct {
	db       *DB
	ctx      context.Context
	counters *Counters // points at local
	local    Counters
	tick     int
	flushed  bool

	// Trace spans, resolved once from ctx at construction; all nil when
	// tracing is off, so the scan hot paths pay a single nil check.
	// span is the engine's "scan" phase; spPrune and spVector are its
	// zone-refutation and vectorised-batch sub-phases. Pre-resolving
	// avoids a name lookup per segment.
	span     *obs.Span
	spPrune  *obs.Span
	spVector *obs.Span
}

// newExecutor builds a per-query executor bound to ctx. When ctx carries
// a trace span, the executor's work is attributed to a "scan" child.
func (db *DB) newExecutor(ctx context.Context) *executor {
	ex := &executor{db: db, ctx: ctx}
	ex.counters = &ex.local
	if sp := obs.SpanFrom(ctx); sp != nil {
		ex.span = sp.Child("scan")
		ex.spPrune = ex.span.Child("prune")
		ex.spVector = ex.span.Child("vector")
	}
	return ex
}

// checkCtx polls the context every ctxCheckInterval ticks.
func (ex *executor) checkCtx() error {
	ex.tick++
	if ex.tick%ctxCheckInterval != 0 || ex.ctx == nil {
		return nil
	}
	select {
	case <-ex.ctx.Done():
		return ex.ctx.Err()
	default:
		return nil
	}
}

// flush merges the executor's work counters into the DB's accumulators;
// idempotent, so both materialising calls and Rows.Close may invoke it.
func (ex *executor) flush(db *DB) {
	if ex.flushed {
		return
	}
	ex.flushed = true
	db.countersMu.Lock()
	db.Counters.Add(ex.local)
	db.countersMu.Unlock()
}

// selectStmt materialises a statement's full result.
func (ex *executor) selectStmt(s *sqlparser.SelectStmt, sc *scope, outer *env) (*Result, error) {
	cols, it, err := ex.stmtIter(s, sc, outer, true)
	if err != nil {
		return nil, err
	}
	rows, err := drainIter(it)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: cols, Rows: rows}, nil
}

// stmtIter opens a statement as a stream of rows. exhaustive promises the
// caller will drain the stream to completion (no early Close, no
// downstream LIMIT cutting it short); it licenses the vectorised and
// parallel scan operators, which read whole segments ahead of the consumer.
func (ex *executor) stmtIter(s *sqlparser.SelectStmt, sc *scope, outer *env, exhaustive bool) ([]string, rowIter, error) {
	lazy := lazyCTENames(s)
	// Each CTE gets its own scope link whose parent holds only the
	// *earlier* CTEs: a body's reference to a later sibling must resolve
	// past the WITH clause (to a base table, or fail) exactly as under
	// eager in-order evaluation, even when the body runs lazily later.
	for _, cte := range s.With {
		entry := &cteEntry{}
		if lazy[cte.Name] {
			entry.stmt, entry.sc, entry.outer = cte.Select, sc, outer
		} else {
			res, err := ex.selectStmt(cte.Select, sc, outer)
			if err != nil {
				return nil, nil, fmt.Errorf("in WITH %s: %w", cte.Name, err)
			}
			entry.res = res
		}
		next := newScope(sc)
		next.rels[cte.Name] = entry
		sc = next
	}
	if len(s.Ops) == 0 {
		return ex.coreIter(s.Body, sc, outer, exhaustive)
	}
	// Set operations open every arm exhaustive and read each to its end.
	cols, it, err := ex.coreIter(s.Body, sc, outer, true)
	if err != nil {
		return nil, nil, err
	}
	for _, op := range s.Ops {
		armCols, arm, err := ex.coreIter(op.Core, sc, outer, true)
		if err != nil {
			it.Close()
			return nil, nil, err
		}
		if len(armCols) != len(cols) {
			it.Close()
			arm.Close()
			return nil, nil, fmt.Errorf("engine: set operation arms have %d vs %d columns", len(cols), len(armCols))
		}
		switch op.Kind {
		case sqlparser.SetUnion:
			it = &concatIter{srcs: []rowIter{it, arm}}
			if !op.All {
				it = &distinctIter{src: it}
			}
		case sqlparser.SetMinus:
			it = &distinctIter{src: it, except: arm}
		}
	}
	return cols, &exhaustIter{src: it}, nil
}

// lazyCTENames reports which WITH names may stream: referenced exactly
// once across the whole statement, with that reference in a FROM clause
// rather than inside an expression subquery (expression subqueries
// re-execute per outer row and would consume a stream repeatedly).
// Anything else keeps the materialise-up-front semantics.
func lazyCTENames(s *sqlparser.SelectStmt) map[string]bool {
	if len(s.With) == 0 {
		return nil
	}
	total := make(map[string]int)
	inExpr := make(map[string]int)
	countTableRefs(s, false, total, inExpr)
	out := make(map[string]bool, len(s.With))
	for _, cte := range s.With {
		if total[cte.Name] == 1 && inExpr[cte.Name] == 0 {
			out[cte.Name] = true
		}
	}
	return out
}

// countTableRefs tallies FROM references per relation name; insideExpr is
// true below any expression subquery (which may re-execute per row).
func countTableRefs(s *sqlparser.SelectStmt, insideExpr bool, total, inExpr map[string]int) {
	if s == nil {
		return
	}
	visitExpr := func(e sqlparser.Expr) {
		sqlparser.Walk(e, false, func(x sqlparser.Expr) {
			switch sub := x.(type) {
			case *sqlparser.SubqueryExpr:
				countTableRefs(sub.Select, true, total, inExpr)
			case *sqlparser.ExistsExpr:
				countTableRefs(sub.Select, true, total, inExpr)
			case *sqlparser.InExpr:
				if sub.Sub != nil {
					countTableRefs(sub.Sub, true, total, inExpr)
				}
			}
		})
	}
	visitCore := func(c *sqlparser.SelectCore) {
		if c == nil {
			return
		}
		for i := range c.From {
			ref := &c.From[i]
			if ref.Subquery != nil {
				countTableRefs(ref.Subquery, insideExpr, total, inExpr)
				continue
			}
			total[ref.Name]++
			if insideExpr {
				inExpr[ref.Name]++
			}
		}
		for _, it := range c.Items {
			visitExpr(it.Expr)
		}
		visitExpr(c.Where)
		for _, g := range c.GroupBy {
			visitExpr(g)
		}
		visitExpr(c.Having)
		for _, o := range c.OrderBy {
			visitExpr(o.Expr)
		}
	}
	for _, cte := range s.With {
		countTableRefs(cte.Select, insideExpr, total, inExpr)
	}
	visitCore(s.Body)
	for _, op := range s.Ops {
		visitCore(op.Core)
	}
}

func rowKey(r storage.Row) string {
	var b strings.Builder
	for _, v := range r {
		encodeValue(&b, v)
	}
	return b.String()
}

func encodeValue(b *strings.Builder, v storage.Value) {
	b.WriteByte(byte(v.K))
	switch v.K {
	case storage.KindString:
		b.WriteString(v.S)
	case storage.KindFloat:
		b.WriteString(strconv.FormatFloat(v.F, 'b', -1, 64))
	case storage.KindNull:
	default:
		b.WriteString(strconv.FormatInt(v.I, 10))
	}
	b.WriteByte(0)
}

// sourceInfo is a resolved FROM entry: a base table, or the opened stream
// of a derived table or CTE.
type sourceInfo struct {
	ref    sqlparser.TableRef
	name   string
	tbl    *storage.Table // base table, or nil
	stream rowIter        // derived table or CTE, or nil
	schema *RelSchema
}

// resolveSources binds the FROM entries. Derived tables and CTEs are
// opened as streams; opening only builds their pipelines, no rows are read
// yet. exhaustive carries the consumer's drain promise into them.
func (ex *executor) resolveSources(core *sqlparser.SelectCore, sc *scope, outer *env, exhaustive bool) ([]*sourceInfo, error) {
	sources := make([]*sourceInfo, 0, len(core.From))
	for _, ref := range core.From {
		src := &sourceInfo{ref: ref, name: ref.RefName()}
		var cols []string
		var err error
		if ref.Subquery != nil {
			cols, src.stream, err = ex.stmtIter(ref.Subquery, sc, outer, exhaustive)
		} else if e, ok := sc.lookup(ref.Name); ok {
			cols, src.stream, err = ex.openCTE(e, ref.Name, exhaustive)
		} else {
			t, ok := ex.db.Table(ref.Name)
			if !ok {
				err = fmt.Errorf("engine: unknown table %q", ref.Name)
			}
			src.tbl = t
		}
		if err != nil {
			for _, s := range sources {
				if s.stream != nil {
					s.stream.Close()
				}
			}
			return nil, err
		}
		if src.tbl != nil {
			src.schema = qualifySchema(src.name, src.tbl.Schema)
		} else {
			src.schema = qualifyCols(src.name, cols)
		}
		sources = append(sources, src)
	}
	return sources, nil
}

// openCTE opens one reference to a WITH relation: a multi-reference CTE
// yields its materialised rows; a single-use CTE opens its body as a
// stream, so a LIMIT or early Close above it terminates the body's scan.
func (ex *executor) openCTE(e *cteEntry, name string, exhaustive bool) ([]string, rowIter, error) {
	switch {
	case e.res != nil:
		return e.res.Columns, &sliceIter{ex: ex, rows: e.res.Rows}, nil
	case e.streamed:
		return nil, nil, fmt.Errorf("engine: internal error: WITH %s stream consumed twice", name)
	}
	cols, it, err := ex.stmtIter(e.stmt, e.sc, e.outer, exhaustive)
	if err != nil {
		return nil, nil, fmt.Errorf("in WITH %s: %w", name, err)
	}
	e.streamed = true
	return cols, &cteIter{src: it, name: name}, nil
}

// refSet computes which local sources an expression references. Qualified
// references match source names; unqualified ones match any source exposing
// the column. References that match nothing are correlated or constant.
func refSet(e sqlparser.Expr, sources []*sourceInfo) map[int]bool {
	set := make(map[int]bool)
	sqlparser.Walk(e, true, func(x sqlparser.Expr) {
		c, ok := x.(*sqlparser.ColRef)
		if !ok {
			return
		}
		for i, s := range sources {
			if c.Table != "" {
				if c.Table == s.name {
					set[i] = true
				}
			} else if s.schema.has(c.Column) {
				set[i] = true
			}
		}
	})
	return set
}

func qualifySchema(name string, s *storage.Schema) *RelSchema {
	cols := make([]RelCol, s.Len())
	for i, c := range s.Columns {
		cols[i] = RelCol{Table: name, Name: c.Name}
	}
	return &RelSchema{Cols: cols}
}

func qualifyCols(name string, cols []string) *RelSchema {
	out := make([]RelCol, len(cols))
	for i, c := range cols {
		out[i] = RelCol{Table: name, Name: c}
	}
	return &RelSchema{Cols: out}
}

// rowPasses evaluates conjuncts against one row laid out as schema,
// rejecting on the first conjunct that is not true. The single
// row-at-a-time WHERE semantics shared by the scans and filterIter.
func rowPasses(ev *evaluator, schema *RelSchema, row storage.Row, conjs []sqlparser.Expr, outer *env) (bool, error) {
	en := &env{schema: schema, row: row, outer: outer}
	for _, cj := range conjs {
		v, err := ev.eval(cj, en)
		if err != nil {
			return false, err
		}
		if t, _ := truth(v); !t {
			return false, nil
		}
	}
	return true, nil
}

// scanIter opens one FROM entry as a stream with its single-source
// conjuncts applied (through the chosen access path for base tables). When
// the consumer is exhaustive, a guarded sequential scan over enough
// segments runs on the parallel operator instead of the serial cursor.
func (ex *executor) scanIter(src *sourceInfo, conjs []sqlparser.Expr, sc *scope, outer *env, exhaustive bool) rowIter {
	ev := &evaluator{ex: ex, scope: sc}
	if src.stream != nil {
		if len(conjs) == 0 {
			return src.stream
		}
		return &filterIter{src: src.stream, schema: src.schema, conjs: conjs, ev: ev, outer: outer}
	}
	t := src.tbl
	plan := planAccess(ex.db, t, src.name, conjs, src.ref.Hint)
	if plan.fetch == nil && exhaustive && len(conjs) > 0 && parallelSafeConjuncts(conjs) {
		if workers := ex.db.EffectiveScanWorkers(); workers > 1 {
			view := t.View()
			if view.NumSegments() >= parallelScanMinSegments {
				return &parallelScanIter{
					ex: ex, view: view, plan: plan, schema: src.schema,
					conjs: conjs, sc: sc, outer: outer, workers: workers,
				}
			}
		}
	}
	return &tableIter{ex: ex, t: t, plan: plan, schema: src.schema, conjs: conjs, ev: ev, outer: outer, exhaustive: exhaustive}
}

// asEquiJoin recognises cur.col = next.col conjuncts usable as hash-join
// keys, returning the column offsets on each side.
func asEquiJoin(e sqlparser.Expr, cur, next *RelSchema) (int, int, bool) {
	cmp, ok := e.(*sqlparser.CompareExpr)
	if !ok || cmp.Op != sqlparser.CmpEq {
		return 0, 0, false
	}
	lc, lok := cmp.L.(*sqlparser.ColRef)
	rc, rok := cmp.R.(*sqlparser.ColRef)
	if !lok || !rok {
		return 0, 0, false
	}
	if li, err := cur.Resolve(lc.Table, lc.Column); err == nil {
		if ri, err := next.Resolve(rc.Table, rc.Column); err == nil {
			return li, ri, true
		}
	}
	if li, err := cur.Resolve(rc.Table, rc.Column); err == nil {
		if ri, err := next.Resolve(lc.Table, lc.Column); err == nil {
			return li, ri, true
		}
	}
	return 0, 0, false
}

func concatSchemas(a, b *RelSchema) *RelSchema {
	cols := make([]RelCol, 0, len(a.Cols)+len(b.Cols))
	cols = append(cols, a.Cols...)
	cols = append(cols, b.Cols...)
	return &RelSchema{Cols: cols}
}

func concatRows(a, b storage.Row) storage.Row {
	out := make(storage.Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// classified is one WHERE conjunct with the set of local sources it
// touches and whether it has been applied somewhere in the pipeline.
type classified struct {
	expr    sqlparser.Expr
	refs    map[int]bool
	applied bool
}

// classifyConjuncts assigns WHERE conjuncts to the sources they can be
// pushed into: constant/correlated conjuncts evaluate with the first
// scan; single-source conjuncts push into their source's scan; the rest
// wait for the join that binds them.
func classifyConjuncts(core *sqlparser.SelectCore, sources []*sourceInfo) ([]*classified, [][]sqlparser.Expr) {
	conjuncts := sqlparser.Conjuncts(core.Where)
	classifieds := make([]*classified, len(conjuncts))
	perSource := make([][]sqlparser.Expr, len(sources))
	for i, cj := range conjuncts {
		cl := &classified{expr: cj, refs: refSet(cj, sources)}
		classifieds[i] = cl
		switch len(cl.refs) {
		case 0:
			perSource[0] = append(perSource[0], cj)
			cl.applied = true
		case 1:
			for s := range cl.refs {
				perSource[s] = append(perSource[s], cj)
			}
			cl.applied = true
		}
	}
	return classifieds, perSource
}

// joinIter opens the FROM entries as a left-deep join chain. The first
// entry streams as the probe side; each later entry is the build side of
// a hash join on the equi-join conjuncts that bind it, or the inner side
// of a cross join when none does. Multi-source conjuncts filter the chain
// as soon as a join binds them.
func (ex *executor) joinIter(core *sqlparser.SelectCore, sources []*sourceInfo, sc *scope, outer *env, exhaustive bool) (*RelSchema, rowIter) {
	classifieds, perSource := classifyConjuncts(core, sources)
	schema := sources[0].schema
	it := ex.scanIter(sources[0], perSource[0], sc, outer, exhaustive)
	if len(sources) == 1 {
		return schema, it
	}
	joined := map[int]bool{0: true}
	for i := 1; i < len(sources); i++ {
		next := ex.scanIter(sources[i], perSource[i], sc, outer, exhaustive)
		joined[i] = true
		var lkeys, rkeys []int
		for _, cl := range classifieds {
			if cl.applied || !subset(cl.refs, joined) {
				continue
			}
			if li, ri, ok := asEquiJoin(cl.expr, schema, sources[i].schema); ok {
				lkeys = append(lkeys, li)
				rkeys = append(rkeys, ri)
				cl.applied = true
			}
		}
		if len(lkeys) > 0 {
			it = &hashJoinIter{ex: ex, probe: it, build: next, lkeys: lkeys, rkeys: rkeys}
		} else {
			it = &crossJoinIter{ex: ex, left: it, inner: next}
		}
		schema = concatSchemas(schema, sources[i].schema)
		var pending []sqlparser.Expr
		for _, cl := range classifieds {
			if !cl.applied && subset(cl.refs, joined) {
				pending = append(pending, cl.expr)
				cl.applied = true
			}
		}
		if len(pending) > 0 {
			it = &filterIter{src: it, schema: schema, conjs: pending, ev: &evaluator{ex: ex, scope: sc}, outer: outer}
		}
	}
	// scansExhaustive opened every scan of a join exhaustive; keep that
	// promise when a LIMIT or an early Close stops the consumer.
	return schema, &exhaustIter{src: it}
}

// coreIter opens one select core as a stream: FROM entries → scans →
// join chain → project → [offset] → [limit]. Rows are produced on demand;
// only a join's build or inner side, grouping and ORDER BY buffer.
func (ex *executor) coreIter(core *sqlparser.SelectCore, sc *scope, outer *env, exhaustive bool) ([]string, rowIter, error) {
	srcExhaustive := scansExhaustive(core, exhaustive)
	sources, err := ex.resolveSources(core, sc, outer, srcExhaustive)
	if err != nil {
		return nil, nil, err
	}
	schema, it := ex.joinIter(core, sources, sc, outer, srcExhaustive)
	columns, it, err := ex.project(core, schema, it, sc, outer)
	if err != nil {
		return nil, nil, err
	}
	if core.Limit >= 0 {
		if core.Offset > 0 {
			it = &offsetIter{src: it, skip: core.Offset}
		}
		it = &limitIter{src: it, n: core.Limit}
	}
	return columns, it, nil
}

// scansExhaustive is the drain promise a core makes to its FROM scans.
// Grouping, ordering and joins read their inputs to the end whatever the
// consumer takes; otherwise only a draining consumer with no LIMIT does.
// EXPLAIN derives its "vec" marker from the same rule.
func scansExhaustive(core *sqlparser.SelectCore, exhaustive bool) bool {
	return coreIsGrouped(core) || len(core.OrderBy) > 0 || len(core.From) > 1 ||
		(exhaustive && core.Limit < 0)
}

func subset(a, b map[int]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// coreIsGrouped reports whether the core needs grouping semantics: an
// explicit GROUP BY, or aggregates in the select list or HAVING.
func coreIsGrouped(core *sqlparser.SelectCore) bool {
	if len(core.GroupBy) > 0 {
		return true
	}
	for _, it := range core.Items {
		if containsAggregate(it.Expr) {
			return true
		}
	}
	return core.Having != nil && containsAggregate(core.Having)
}

// project turns the input stream into the core's output rows: grouping
// and aggregation, the select list, DISTINCT and the ORDER BY sort. Only
// grouping and the sort buffer; a core with neither streams row by row.
// While the sort is pending each row carries its ORDER BY keys after the
// first width columns, so DISTINCT runs ahead of the sort and duplicates
// keep their first occurrence's keys.
func (ex *executor) project(core *sqlparser.SelectCore, schema *RelSchema, in rowIter, sc *scope, outer *env) ([]string, rowIter, error) {
	columns, width := ex.outputColumns(core), len(core.Items)
	if core.Star {
		columns, width = schema.ColumnNames(), len(schema.Cols)
	}
	var alias map[string]int
	if len(core.OrderBy) > 0 {
		alias = make(map[string]int, len(core.Items))
		for i, it := range core.Items {
			if it.Alias != "" {
				alias[it.Alias] = i
			}
		}
	}
	it := in
	switch {
	case coreIsGrouped(core):
		if core.Star {
			in.Close()
			return nil, nil, fmt.Errorf("engine: SELECT * is not valid with GROUP BY or aggregates")
		}
		rows, err := ex.aggregate(core, schema, in, sc, outer, alias)
		if err != nil {
			return nil, nil, err
		}
		it = &sliceIter{ex: ex, rows: rows}
	case !core.Star || len(core.OrderBy) > 0:
		it = &projIter{src: in, core: core, alias: alias, schema: schema, ev: &evaluator{ex: ex, scope: sc}, outer: outer}
	}
	if core.Distinct {
		it = &distinctIter{src: it, width: width}
	}
	if len(core.OrderBy) == 0 {
		return columns, it, nil
	}
	rows, err := drainIter(it)
	if err != nil {
		return nil, nil, err
	}
	sortRows(rows, width, core.OrderBy)
	return columns, &sliceIter{ex: ex, rows: rows}, nil
}

// outputRow evaluates one output row over en: the select list (en's row
// itself under SELECT *) followed by the ORDER BY keys. A key naming a
// select-list alias (ORDER BY visits DESC) reads the computed output
// value, where the alias exists, instead of re-evaluating in the source
// scope, where it does not. When an alias shadows a source column the
// alias wins, matching MySQL's resolution order.
func outputRow(ev *evaluator, en *env, core *sqlparser.SelectCore, alias map[string]int) (storage.Row, error) {
	var out storage.Row
	if core.Star {
		out = make(storage.Row, len(en.row), len(en.row)+len(core.OrderBy))
		copy(out, en.row)
	} else {
		out = make(storage.Row, len(core.Items), len(core.Items)+len(core.OrderBy))
		for i, item := range core.Items {
			v, err := ev.eval(item.Expr, en)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	}
	for _, o := range core.OrderBy {
		if cr, ok := o.Expr.(*sqlparser.ColRef); ok && cr.Table == "" {
			if j, ok := alias[cr.Column]; ok {
				out = append(out, out[j])
				continue
			}
		}
		v, err := ev.eval(o.Expr, en)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// sortRows stable-sorts rows on the ORDER BY keys held after their first
// width columns, then trims the keys off.
func sortRows(rows []storage.Row, width int, order []sqlparser.OrderItem) {
	sort.SliceStable(rows, func(a, b int) bool {
		ka, kb := rows[a][width:], rows[b][width:]
		for i, o := range order {
			c, ok := storage.Compare(ka[i], kb[i])
			if !ok {
				// NULLs (and incomparables) first on ASC, last on DESC.
				an, bn := ka[i].IsNull(), kb[i].IsNull()
				if an == bn {
					continue
				}
				return an != o.Desc
			}
			if c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i, r := range rows {
		rows[i] = r[:width:width]
	}
}

// aggregate drains the input into GROUP BY buckets and evaluates one
// output row per group, dropping the groups HAVING rejects.
func (ex *executor) aggregate(core *sqlparser.SelectCore, schema *RelSchema, in rowIter, sc *scope, outer *env, alias map[string]int) ([]storage.Row, error) {
	groups, order, err := ex.buildGroups(core, schema, in, sc, outer)
	if err != nil {
		return nil, err
	}
	aggNodes := collectAggregates(core)
	var out []storage.Row
	for _, gk := range order {
		g := groups[gk]
		aggVals, err := ex.computeAggregates(aggNodes, g, schema, sc, outer)
		if err != nil {
			return nil, err
		}
		ev := &evaluator{ex: ex, scope: sc, aggValues: aggVals}
		en := &env{schema: schema, row: g.representative(schema), outer: outer}
		if core.Having != nil {
			hv, err := ev.eval(core.Having, en)
			if err != nil {
				return nil, err
			}
			if t, _ := truth(hv); !t {
				continue
			}
		}
		row, err := outputRow(ev, en, core, alias)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func (ex *executor) outputColumns(core *sqlparser.SelectCore) []string {
	cols := make([]string, len(core.Items))
	for i, it := range core.Items {
		switch {
		case it.Alias != "":
			cols[i] = it.Alias
		default:
			if c, ok := it.Expr.(*sqlparser.ColRef); ok {
				cols[i] = c.Column
			} else {
				cols[i] = sqlparser.PrintExpr(it.Expr)
			}
		}
	}
	return cols
}

// group is one GROUP BY bucket.
type group struct {
	rows []storage.Row
}

func (g *group) representative(schema *RelSchema) storage.Row {
	if len(g.rows) > 0 {
		return g.rows[0]
	}
	return make(storage.Row, len(schema.Cols))
}

// buildGroups drains the input into GROUP BY buckets, in first-seen order.
func (ex *executor) buildGroups(core *sqlparser.SelectCore, schema *RelSchema, in rowIter, sc *scope, outer *env) (map[string]*group, []string, error) {
	if len(core.GroupBy) == 0 {
		// A single group over all rows (aggregates without GROUP BY).
		rows, err := drainIter(in)
		if err != nil {
			return nil, nil, err
		}
		return map[string]*group{"": {rows: rows}}, []string{""}, nil
	}
	defer in.Close()
	groups := make(map[string]*group)
	var order []string
	ev := &evaluator{ex: ex, scope: sc}
	var b strings.Builder
	for {
		row, err := in.Next()
		if err != nil {
			return nil, nil, err
		}
		if row == nil {
			return groups, order, nil
		}
		if err := ex.checkCtx(); err != nil {
			return nil, nil, err
		}
		en := &env{schema: schema, row: row, outer: outer}
		b.Reset()
		for _, gexpr := range core.GroupBy {
			v, err := ev.eval(gexpr, en)
			if err != nil {
				return nil, nil, err
			}
			encodeValue(&b, v)
		}
		k := b.String()
		g, ok := groups[k]
		if !ok {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, row)
	}
}

func collectAggregates(core *sqlparser.SelectCore) []*sqlparser.FuncCall {
	var aggs []*sqlparser.FuncCall
	visit := func(e sqlparser.Expr) {
		sqlparser.Walk(e, false, func(x sqlparser.Expr) {
			if fc, ok := x.(*sqlparser.FuncCall); ok && (fc.Star || isAggregateName(fc.Name)) {
				aggs = append(aggs, fc)
			}
		})
	}
	for _, it := range core.Items {
		visit(it.Expr)
	}
	if core.Having != nil {
		visit(core.Having)
	}
	for _, o := range core.OrderBy {
		visit(o.Expr)
	}
	return aggs
}

func (ex *executor) computeAggregates(nodes []*sqlparser.FuncCall, g *group, schema *RelSchema, sc *scope, outer *env) (map[sqlparser.Expr]storage.Value, error) {
	out := make(map[sqlparser.Expr]storage.Value, len(nodes))
	ev := &evaluator{ex: ex, scope: sc}
	for _, fc := range nodes {
		if _, done := out[fc]; done {
			continue
		}
		name := strings.ToLower(fc.Name)
		if fc.Star {
			out[fc] = storage.NewInt(int64(len(g.rows)))
			continue
		}
		if len(fc.Args) != 1 {
			return nil, fmt.Errorf("engine: aggregate %s expects one argument", fc.Name)
		}
		var (
			count    int64
			sumF     float64
			sumI     int64
			anyFloat bool
			minV     = storage.Null
			maxV     = storage.Null
			distinct map[string]struct{}
		)
		if fc.Distinct {
			distinct = make(map[string]struct{})
		}
		for _, row := range g.rows {
			if err := ex.checkCtx(); err != nil {
				return nil, err
			}
			en := &env{schema: schema, row: row, outer: outer}
			v, err := ev.eval(fc.Args[0], en)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			if distinct != nil {
				var b strings.Builder
				encodeValue(&b, v)
				if _, dup := distinct[b.String()]; dup {
					continue
				}
				distinct[b.String()] = struct{}{}
			}
			count++
			switch v.K {
			case storage.KindFloat:
				anyFloat = true
				sumF += v.F
			default:
				sumI += v.I
				sumF += float64(v.I)
			}
			if minV.IsNull() || storage.Less(v, minV) {
				minV = v
			}
			if maxV.IsNull() || storage.Less(maxV, v) {
				maxV = v
			}
		}
		switch name {
		case "count":
			out[fc] = storage.NewInt(count)
		case "sum":
			if count == 0 {
				out[fc] = storage.Null
			} else if anyFloat {
				out[fc] = storage.NewFloat(sumF)
			} else {
				out[fc] = storage.NewInt(sumI)
			}
		case "avg":
			if count == 0 {
				out[fc] = storage.Null
			} else {
				out[fc] = storage.NewFloat(sumF / float64(count))
			}
		case "min":
			out[fc] = minV
		case "max":
			out[fc] = maxV
		default:
			return nil, fmt.Errorf("engine: unknown aggregate %q", fc.Name)
		}
	}
	return out, nil
}
