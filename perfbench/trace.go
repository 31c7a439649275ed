package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
)

// span is one call into a layer, made from the benchmark around the
// public function that enters that layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 on an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced run's spans and per-op counts in memory; they
// are written out when the run ends.
type recorder struct {
	epoch time.Time
	spans []span
	ops   []*opTrace
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// opTrace is one traced op: its root span plus what was read at the layer
// boundaries. Its methods are no-ops on nil, so untraced ops pay nothing.
type opTrace struct {
	rec  *recorder
	id   int
	kind opKind
	root int
	deny bool

	wall, parse, rewrite, exec, firstRow time.Duration

	regen        bool // GuardRegens rose during the rewrite
	hits, misses int
	decisions    []core.TableDecision
	counters     engine.Counters
	rows         int

	// Writes: WAL time inside the call, append (fsync included) and fsync.
	walAppend, walFsync int64
}

var kindNames = [...]string{opRead: "read", opGrant: "grant", opRevoke: "revoke", opWarm: "warmup",
	opShadow: "shadow", opProbe: "probe"}

func (r *recorder) newOp(kind opKind) *opTrace {
	t := &opTrace{rec: r, id: len(r.ops), kind: kind, root: -1}
	r.ops = append(r.ops, t)
	t.root = t.begin(kindNames[kind])
	return t
}

// finish closes the op's root span.
func (r *recorder) finish(t *opTrace) { t.wall = t.end(t.root) }

func (t *opTrace) begin(name string) int {
	if t == nil {
		return -1
	}
	r := t.rec
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: t.root, Op: t.id,
		Name: name, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (t *opTrace) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.rec.spans[i]
	s.End = int64(time.Since(t.rec.epoch))
	return s.dur()
}

// report keeps the guard-cache and strategy outcome of a rewrite.
func (t *opTrace) report(rep *core.Report) {
	t.hits += rep.GuardCacheHits
	t.misses += rep.GuardCacheMisses
	t.decisions = append(t.decisions, rep.Decisions...)
}

// unattributed returns, per root span, its duration minus the time its
// child spans cover: the part of an op no layer span accounts for.
func unattributed(spans []span) map[int]time.Duration {
	covered := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	out := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent < 0 {
			out[s.Op] = s.dur() - covered[s.ID]
		}
	}
	return out
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
