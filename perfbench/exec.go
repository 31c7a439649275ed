package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sync/atomic"

	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

type opKind uint8

const (
	opRead opKind = iota
	opGrant
	opRevoke
	// The tracer's own kinds: a set-up guard warm-up rewrite, the
	// in-process shadow of a traced wire read, and a probe-pass wire read.
	opWarm
	opShadow
	opProbe
)

// op is one closed-loop request.
type op struct {
	kind opKind
	// Reads.
	querier, purpose string
	name, sql        string
	limit            int  // close after this many rows; 0 reads to the end
	rowCheck         bool // SELECT * over the protected relation
	deny             bool // querier holds no policies
	// Grants; revokes take the client's oldest live grant.
	grant *policy.Policy
}

// readOut is what a read returned.
type readOut struct {
	rows     []storage.Row
	cols     []string
	counters engine.Counters
}

// executor runs one client's ops against the system, in process or over
// the wire. A non-nil trace records the read's layer spans and counts.
type executor interface {
	read(ctx context.Context, o op, t *opTrace) (readOut, error)
	grant(ctx context.Context, p *policy.Policy) (int64, error)
	revoke(ctx context.Context, id int64) error
}

// inproc calls the middleware directly through per-querier sessions.
type inproc struct {
	m        *core.Middleware
	sessions map[string]*core.Session
}

func newInproc(m *core.Middleware) *inproc {
	return &inproc{m: m, sessions: map[string]*core.Session{}}
}

func (x *inproc) read(ctx context.Context, o op, t *opTrace) (readOut, error) {
	qm := policy.Metadata{Querier: o.querier, Purpose: o.purpose}
	if t == nil {
		s, ok := x.sessions[o.querier]
		if !ok {
			s = x.m.NewSession(qm)
			x.sessions[o.querier] = s
		}
		rows, err := s.Query(ctx, o.sql)
		if err != nil {
			return readOut{}, err
		}
		return drainEngine(rows, o.limit)
	}
	// Traced: the same path as Session.Query, split at its layer
	// boundaries. RewriteQuery parses internally; the separate parse
	// measures that share.
	sp := t.begin("sqlparser.parse")
	_, err := sqlparser.Parse(o.sql)
	t.parse = t.end(sp)
	if err != nil {
		return readOut{}, err
	}
	regens := x.m.CacheStats().GuardRegens
	sp = t.begin("core.rewrite")
	stmt, rep, err := x.m.RewriteQuery(o.sql, qm)
	t.rewrite = t.end(sp)
	if err != nil {
		return readOut{}, err
	}
	t.regen = x.m.CacheStats().GuardRegens > regens
	t.report(rep)
	sp = t.begin("engine.exec")
	out, err := x.stream(ctx, stmt, o.limit)
	t.exec = t.end(sp)
	t.counters = out.counters
	return out, err
}

func (x *inproc) stream(ctx context.Context, stmt *sqlparser.SelectStmt, limit int) (readOut, error) {
	rows, err := x.m.DB().StreamStmt(ctx, stmt)
	if err != nil {
		return readOut{}, err
	}
	return drainEngine(rows, limit)
}

func (x *inproc) grant(_ context.Context, p *policy.Policy) (int64, error) {
	if err := x.m.AddPolicy(p); err != nil {
		return 0, err
	}
	return p.ID, nil
}

func (x *inproc) revoke(_ context.Context, id int64) error { return x.m.RevokePolicy(id) }

// drainEngine copies up to limit rows (all when limit is 0) and closes
// the result.
func drainEngine(rows *engine.Rows, limit int) (readOut, error) {
	var out readOut
	for (limit == 0 || len(out.rows) < limit) && rows.Next() {
		r := rows.Row()
		cp := make(storage.Row, len(r))
		copy(cp, r)
		out.rows = append(out.rows, cp)
	}
	err := rows.Err()
	out.cols = rows.Columns()
	out.counters = rows.Counters()
	_ = rows.Close() // closing a drained or abandoned stream only releases it
	return out, err
}

// wire talks to sieve-server through the client package.
type wire struct{ e *env }

func (x wire) read(ctx context.Context, o op, t *opTrace) (readOut, error) {
	s, err := x.e.wireSession(ctx, o.querier)
	if err != nil {
		return readOut{}, err
	}
	sp := t.begin("client.first_row")
	rows, err := s.Query(ctx, o.sql)
	if err != nil {
		t.end(sp)
		return readOut{}, err
	}
	var out readOut
	next := rows.Next()
	if first := t.end(sp); t != nil {
		t.firstRow = first
	}
	sp = t.begin("client.drain")
	for next {
		out.rows = append(out.rows, rowFromWire(rows.Row()))
		if o.limit > 0 && len(out.rows) >= o.limit {
			break
		}
		next = rows.Next()
	}
	err = rows.Err()
	out.cols = rows.Columns()
	_ = rows.Close() // early Close is the point of a limited read
	t.end(sp)
	return out, err
}

func (x wire) grant(ctx context.Context, p *policy.Policy) (int64, error) {
	cp := client.Policy{Owner: p.Owner, Querier: p.Querier, Purpose: p.Purpose, Relation: p.Relation,
		Action: string(p.Action)}
	for _, c := range p.Conditions {
		if c.Kind != policy.CondCompare {
			return 0, fmt.Errorf("wire grant: only comparison conditions travel over the wire")
		}
		cp.Conditions = append(cp.Conditions, client.Condition{Attr: c.Attr, Op: c.Op.String(),
			Value: client.FromValue(c.Val)})
	}
	return x.e.admin.AddPolicy(ctx, cp)
}

func (x wire) revoke(ctx context.Context, id int64) error { return x.e.admin.RevokePolicy(ctx, id) }

// rowFromWire converts a wire row back to engine values (the inverse of
// client.FromValue), so the correctness gate sees the same rows either way.
// A wire NULL stays the zero Value, which is NULL.
func rowFromWire(r []any) storage.Row {
	out := make(storage.Row, len(r))
	for i, a := range r {
		switch x := a.(type) {
		case int64:
			out[i] = storage.NewInt(x)
		case float64:
			out[i] = storage.NewFloat(x)
		case string:
			out[i] = storage.NewString(x)
		case bool:
			out[i] = storage.NewBool(x)
		case client.TimeOfDay:
			out[i] = storage.NewTime(int64(x))
		case client.Date:
			out[i] = storage.NewDate(int64(x))
		}
	}
	return out
}

// digest is an order-independent fingerprint of a result: the sum of its
// rows' FNV-64a hashes, mixed with the row count.
func digest(rows []storage.Row) uint64 {
	var sum uint64
	var buf [8]byte
	for _, r := range rows {
		h := fnv.New64a()
		for _, v := range r {
			h.Write([]byte{byte(v.K)})
			binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
			h.Write(buf[:])
			io.WriteString(h, v.S)
		}
		sum += h.Sum64()
	}
	return sum ^ uint64(len(rows))*0x9e3779b97f4a7c15
}

// countingTransport counts response body bytes.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
