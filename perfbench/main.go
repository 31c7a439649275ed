// Command perfbench is the repository benchmark. One invocation builds one
// workload's system from generated inputs, drives it with one closed-loop
// client for a fixed time, holds every result to the enforcement
// invariants, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced replay of the same ops) as one JSON line.
//
//	go run . --workload campus-analytics --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads and what each metric measures.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/sieve-db/sieve/internal/policy"
)

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	workdir  string
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	o := options{seed: 1, seconds: 45, scale: "medium", workdir: ".bench_build/run"}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	fs.Int64Var(&o.seed, "seed", o.seed, "seed of the op streams")
	fs.Float64Var(&o.seconds, "seconds", o.seconds, "minimum timed phase of the untraced run, after the warm-up")
	trace := fs.Int("trace", 0, "1 adds the traced replay and prints the per-layer metrics")
	fs.StringVar(&o.scale, "scale", o.scale, "corpus scale: medium | test")
	fs.StringVar(&o.workdir, "workdir", o.workdir, "directory for WAL data and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	res, err := run(context.Background(), o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.out.Correct {
		return 1
	}
	return 0
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	out   output
	notes []string
	// counts holds the traced replay's work counters, for the tests.
	counts map[string]int64
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(ctx context.Context, o options, log io.Writer) (*result, error) {
	sp, ok := specs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	sc, err := scaleFor(o.scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}

	// Set-up, repeated: the median is setup_s and the last build is driven.
	var setups []float64
	var e *env
	for i := 0; i < sc.setupReps; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		e, err = sp.setup(sc.cfg, o.workdir, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { e.close() }()

	// The first replayOps ops are the warm-up: the traced run replays
	// them, and hospital-churn's first pass over its 320 staff runs about
	// four times faster than every later one. heap_mb is the live heap at
	// the end of the warm-up; on hospital-churn the heap grows with the
	// ops served, so a reading at the end of the timed run would rise with
	// throughput. The gate's own state, measured as the harness is built,
	// is subtracted.
	base := liveHeapMB()
	h, err := newHarness(sp, e, o.seed)
	if err != nil {
		return nil, err
	}
	gateMB := liveHeapMB() - base
	if err := h.prelude(ctx); err != nil {
		return nil, err
	}
	// The timed phase may extend past --seconds to hold enough reads for
	// p99, up to three times --seconds (at most 90 s).
	secs := time.Duration(o.seconds * float64(time.Second))
	from, to, heapMB := h.measure(ctx, limits{warmOps: sc.replayOps, seconds: secs, minReads: sc.minReads,
		hardCap: max(secs, min(3*secs, 90*time.Second))})
	heapMB -= gateMB
	measured := h.recs
	timed := measured[sc.replayOps:]
	res := &result{}
	viol, samples := h.violations()
	correct := viol == 0
	for _, s := range samples {
		fmt.Fprintln(log, "violation:", s)
	}
	for _, s := range h.errors {
		fmt.Fprintln(log, "error:", s)
	}
	attempted, failed := countOps(measured)
	reads := len(latencies(timed, 0, all, opRead))
	if reads < 1000 {
		fmt.Fprintf(log, "note: %d timed reads; read_p99_ms needs 1000 to have 10 samples beyond it\n", reads)
	}
	res.note("workload=%s seed=%d scale=%s warm-up=%d ops in %.2fs timed=%.2fs ops=%d timed_reads=%d violations=%d gate_heap_mb=%.1f",
		o.workload, o.seed, o.scale, len(measured)-len(timed), from.Seconds(), (to - from).Seconds(),
		attempted, reads, viol, gateMB)

	values := endToEndValues(timed, from, to, setups, heapMB)
	for _, k := range []opKind{opRead, opGrant, opRevoke} {
		xs := latencies(timed, 0, all, k)
		res.note("%s latency ms over %d: p50 %.3f p90 %.3f p95 %.3f p98 %.3f p99 %.3f p99.5 %.3f max %.3f",
			kindNames[k], len(xs),
			percentile(xs, 50), percentile(xs, 90), percentile(xs, 95), percentile(xs, 98),
			percentile(xs, 99), percentile(xs, 99.5), percentile(xs, 100))
	}
	defs := endToEnd
	if o.trace {
		e.close()
		lv, tAttempted, tFailed, ok, err := traced(ctx, o, sp, sc, measured, timed, log, res)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		values, defs = lv, perLayer
		attempted += tAttempted
		failed += tFailed
		correct = correct && ok
	}
	res.out = output{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.out.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return res, nil
}

// traced replays the measured run's first ops on a freshly built system
// with spans at every layer boundary, checks that each replayed read
// returns what it returned untraced, runs the probe pass and computes the
// per-layer metrics. The tracing check folds into the verdict.
func traced(ctx context.Context, o options, sp *spec, sc scale, measured, timed []opRecord, log io.Writer, res *result) (
	values map[string]float64, attempted, failed int64, correct bool, err error) {

	rec := newRecorder()
	e, err := sp.setup(sc.cfg, o.workdir, rec)
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer e.close()
	h, err := newHarness(sp, e, o.seed)
	if err != nil {
		return nil, 0, 0, false, err
	}
	if err := h.prelude(ctx); err != nil {
		return nil, 0, 0, false, err
	}
	before := snap(e)
	elapsed := h.replay(ctx, sc.replayOps, rec)
	after := snap(e)

	// Every replayed op must return what the untraced run returned.
	var compared int
	for j, r := range h.recs {
		if j >= len(measured) || r.failed || measured[j].failed {
			continue
		}
		compared++
		if r.kind == opRead && (r.digest != measured[j].digest || r.rows != measured[j].rows) {
			h.mismatches++
			h.noteError("op %d: traced rows differ from the untraced run", j)
		}
	}
	pr, err := h.probe(ctx, sp, o.seed, sc.probeReads, rec)
	if err != nil {
		return nil, 0, 0, false, err
	}

	viol, samples := h.violations()
	for _, s := range samples {
		fmt.Fprintln(log, "violation (traced):", s)
	}
	for _, s := range h.errors {
		fmt.Fprintln(log, "error (traced):", s)
	}
	values = layerValues(layerInputs{ops: rec.ops, spans: rec.spans, before: before, after: after,
		measured: measured, timed: timed, replayed: h.recs, probe: pr})
	var reads int
	for _, t := range rec.ops {
		if t.kind == opRead {
			reads++
		}
	}
	res.note("traced: replayed %d ops in %.2fs (%.1f reads/s), %d compared with the untraced run, %d mismatches, %d violations",
		sc.replayOps, elapsed.Seconds(), float64(reads)/elapsed.Seconds(), compared, h.mismatches, viol)
	res.counts = map[string]int64{
		"guard_regens":       after.cache.GuardRegens - before.cache.GuardRegens,
		"claims_invalidated": after.cache.ClaimsInvalidated - before.cache.ClaimsInvalidated,
	}
	for _, k := range []string{"wal_appends", "wal_bytes", "wal_fsyncs"} {
		res.counts[k] = after.wal[k] - before.wal[k]
	}
	for _, t := range rec.ops {
		if t.kind == opRead || t.kind == opShadow {
			res.counts["tuples_read"] += t.counters.TuplesRead
			res.counts["rows"] += int64(t.rows)
		}
	}
	res.note("traced counts: guard_regens=%d claims_invalidated=%d wal_appends=%d wal_bytes=%d wal_fsyncs=%d tuples_read=%d rows=%d",
		res.counts["guard_regens"], res.counts["claims_invalidated"], res.counts["wal_appends"],
		res.counts["wal_bytes"], res.counts["wal_fsyncs"], res.counts["tuples_read"], res.counts["rows"])
	traceErr := checkTrace(readUnattributed(rec.ops, rec.spans), values["trace.overhead_us"])
	res.note("tracing overhead: %.1fus per read; unattributed self time %.1fus per read; check: %s",
		values["trace.overhead_us"], values["trace.unattributed_us"], cmp.Or(traceErr, "ok"))
	if traceErr != "" {
		fmt.Fprintln(log, "trace check:", traceErr)
	}

	path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, rec.spans); err != nil {
		return nil, 0, 0, false, err
	}
	res.note("spans: %d written to %s", len(rec.spans), path)
	attempted, failed = countOps(h.recs)
	attempted += int64(pr.reads)
	return values, attempted, failed, viol == 0 && h.mismatches == 0 && traceErr == "", nil
}

// probe is the pass after the replay: the first reads of the stream on a
// warm guard, each run in process between two
// MemStats reads (the allocation counts) and then over the wire (the
// wire's cost per row).
func (h *harness) probe(ctx context.Context, sp *spec, seed int64, n int, rec *recorder) (probeOut, error) {
	var out probeOut
	e := h.e
	if err := e.bootServer(); err != nil {
		return out, err
	}
	st := sp.stream(e, seed)
	x := newInproc(e.m)
	w := wire{e}
	var a, b runtime.MemStats
	for out.reads < n {
		o := st.next()
		if o.kind != opRead {
			continue
		}
		if _, err := e.wireSession(ctx, o.querier); err != nil {
			return out, err
		}
		// Resolve the guard first, so neither side below pays its
		// regeneration and their difference is the wire's alone.
		if _, _, err := e.m.RewriteQuery(o.sql, policy.Metadata{Querier: o.querier, Purpose: o.purpose}); err != nil {
			return out, fmt.Errorf("probe rewrite %s: %w", o.name, err)
		}
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		in, err := x.read(ctx, o, nil)
		inLat := time.Since(t0)
		runtime.ReadMemStats(&b)
		if err != nil {
			return out, fmt.Errorf("probe read %s: %w", o.name, err)
		}
		out.mallocs += b.Mallocs - a.Mallocs
		out.allocB += b.TotalAlloc - a.TotalAlloc

		bytes0 := e.transport.bytes.Load()
		t := rec.newOp(opProbe)
		t0 = time.Now()
		wo, err := w.read(ctx, o, t)
		wireLat := time.Since(t0)
		rec.finish(t)
		if err != nil {
			return out, fmt.Errorf("probe wire read %s: %w", o.name, err)
		}
		out.reads++
		if digest(wo.rows) != digest(in.rows) {
			h.mismatches++
			h.noteError("probe: wire and in-process rows differ for %s as %s", o.name, o.querier)
		}
		out.wireBytes += e.transport.bytes.Load() - bytes0
		out.rows += int64(len(wo.rows))
		out.firstRowUs = append(out.firstRowUs, us(t.firstRow))
		if len(wo.rows) > 0 {
			out.wireUsPerRow = append(out.wireUsPerRow, us(wireLat-inLat)/float64(len(wo.rows)))
		}
	}
	return out, nil
}
