package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/sieve-db/sieve/internal/core"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; the package test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p90_ms", "ms", "lower", 0.25},
	{"reads_per_s", "1/s", "higher", 0.25},
	{"grant_p50_ms", "ms", "lower", 0.25},
	{"revoke_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.1},
}

// perLayer come from the traced run. Each is listed with the end-to-end
// metric it should move in README.md. The first three summarise the
// untraced phase of the same invocation: the tails are too host-sensitive
// to carry a bound, and the error rate is 0 on a healthy run (README.md).
var perLayer = []metricDef{
	{"read_p99_ms", "ms", "lower", 0},
	{"write_p99_ms", "ms", "lower", 0},
	{"error_rate", "ratio", "lower", 0},
	{"sqlparser.parse_us", "us", "lower", 0},
	{"core.rewrite_us", "us", "lower", 0},
	{"core.guard_hit_ratio", "ratio", "higher", 0},
	{"core.claims_invalidated_per_write", "count", "lower", 0},
	{"core.indexguards_share", "ratio", "higher", 0},
	{"core.indexquery_share", "ratio", "higher", 0},
	{"core.linearscan_share", "ratio", "lower", 0},
	{"guard.regen_rewrite_us", "us", "lower", 0},
	{"guard.regens_per_kread", "count", "lower", 0},
	{"guard.guards_per_read", "count", "lower", 0},
	{"guard.policies_per_guard", "count", "higher", 0},
	{"policy.write_us", "us", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.fsyncs_per_write", "count", "lower", 0},
	{"wal.bytes_per_write", "B", "lower", 0},
	{"engine.exec_us", "us", "lower", 0},
	{"engine.ns_per_tuple", "ns", "lower", 0},
	{"engine.tuples_per_row", "count", "lower", 0},
	{"engine.tuples_per_deny_read", "count", "lower", 0},
	{"engine.index_lookups_per_read", "count", "lower", 0},
	{"engine.bitmap_or_share", "ratio", "higher", 0},
	{"engine.segments_pruned_share", "ratio", "higher", 0},
	{"engine.vectorised_share", "ratio", "higher", 0},
	{"engine.allocs_per_read", "count", "lower", 0},
	{"engine.alloc_kb_per_read", "KB", "lower", 0},
	{"server.wire_us_per_row", "us", "lower", 0},
	{"server.bytes_per_row", "B", "lower", 0},
	{"client.first_row_us", "us", "lower", 0},
	{"trace.overhead_us", "us", "lower", 0},
	{"trace.unattributed_us", "us", "lower", 0},
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// latencies returns, in ms, the latencies of the ops of the given kinds
// that succeeded and completed in [from, to).
func latencies(recs []opRecord, from, to time.Duration, kinds ...opKind) []float64 {
	var out []float64
	for _, r := range recs {
		if !r.failed && r.done >= from && r.done < to && slices.Contains(kinds, r.kind) {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

func countOps(recs []opRecord) (attempted, failed int64) {
	for _, r := range recs {
		attempted++
		if r.failed {
			failed++
		}
	}
	return attempted, failed
}

// all is a window holding every op.
const all = time.Duration(math.MaxInt64)

// windows is how many equal time windows the untraced run's timed phase
// is cut into.
// Each end-to-end timing is the median of its value over the windows, so
// a burst of host CPU steal confined to a few of them does not move it.
const windows = 10

// endToEndValues summarises the untraced run's timed phase [from, to).
func endToEndValues(timed []opRecord, from, to time.Duration, setups []float64, heapMB float64) map[string]float64 {
	w := (to - from) / windows
	var p50, p90, rate, grant, revoke []float64
	for i := time.Duration(0); i < windows; i++ {
		lo, hi := from+i*w, from+(i+1)*w
		reads := latencies(timed, lo, hi, opRead)
		p50 = append(p50, percentile(reads, 50))
		p90 = append(p90, percentile(reads, 90))
		rate = append(rate, float64(len(reads))/w.Seconds())
		grant = append(grant, percentile(latencies(timed, lo, hi, opGrant), 50))
		revoke = append(revoke, percentile(latencies(timed, lo, hi, opRevoke), 50))
	}
	return map[string]float64{
		"read_p50_ms":   median(p50),
		"read_p90_ms":   median(p90),
		"reads_per_s":   median(rate),
		"grant_p50_ms":  median(grant),
		"revoke_p50_ms": median(revoke),
		"setup_s":       median(setups),
		"heap_mb":       heapMB,
	}
}

// counterSnap holds the middleware's and the log's cumulative counters.
type counterSnap struct {
	cache   core.CacheStats
	wal     map[string]int64
	fsyncNS int64
}

func snap(e *env) counterSnap {
	return counterSnap{cache: e.m.CacheStats(), wal: e.wal.Varz(), fsyncNS: e.wal.FsyncNanos()}
}

// probeOut is the one-client probe pass: allocations in process and the
// same reads over the wire.
type probeOut struct {
	reads           int
	mallocs, allocB uint64
	wireUsPerRow    []float64
	wireBytes, rows int64
	firstRowUs      []float64
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	ops           []*opTrace
	spans         []span
	before, after counterSnap
	measured      []opRecord // untraced run, for error rate and overhead
	timed         []opRecord // its timed phase, for the tails
	replayed      []opRecord
	probe         probeOut
}

func layerValues(in layerInputs) map[string]float64 {
	var (
		parse, rewriteWarm, regenRewrite, exec, writeUs, appendUs []float64
		reads, engineReads, writes, denyReads                     int
		hits, misses, guards, policies, decisions                 float64
		strat                                                     = map[core.Strategy]float64{}
		execNs, tuples, rows, denyTuples, lookups                 float64
		bitmap, scans, pruned, segs, vectorised                   float64
	)
	for _, t := range in.ops {
		switch t.kind {
		case opGrant, opRevoke:
			writes++
			writeUs = append(writeUs, us(t.wall)-float64(t.walAppend)/1e3)
			appendUs = append(appendUs, float64(t.walAppend-t.walFsync)/1e3)
			continue
		case opWarm:
			if t.regen {
				regenRewrite = append(regenRewrite, us(t.rewrite))
			}
			continue
		case opRead:
			reads++
		}
		if t.parse == 0 { // a wire read: its shadow carries the layer counts
			continue
		}
		engineReads++
		parse = append(parse, us(t.parse))
		if t.regen {
			regenRewrite = append(regenRewrite, us(t.rewrite))
		} else {
			rewriteWarm = append(rewriteWarm, us(t.rewrite-t.parse))
		}
		hits += float64(t.hits)
		misses += float64(t.misses)
		for _, d := range t.decisions {
			decisions++
			strat[d.Strategy]++
			guards += float64(d.Guards)
			policies += float64(d.Policies)
		}
		c := t.counters
		exec = append(exec, us(t.exec))
		if c.TuplesRead > 0 {
			execNs += float64(t.exec)
		}
		tuples += float64(c.TuplesRead)
		lookups += float64(c.IndexLookups)
		bitmap += float64(c.BitmapOrScans)
		scans += float64(c.IndexScans + c.BitmapOrScans + c.SeqScans)
		pruned += float64(c.SegmentsPruned)
		segs += float64(c.SegmentsPruned + c.SegmentsScanned)
		vectorised += float64(c.RowsVectorised)
		if t.deny {
			denyReads++
			denyTuples += float64(c.TuplesRead)
		} else {
			rows += float64(t.rows)
		}
	}
	// Tuples read by denied reads produced no rows; keep them out of the
	// per-row waste so the two metrics stay separate.
	rowTuples := tuples - denyTuples

	attempted, failed := countOps(in.measured)
	// Tracing overhead: each traced read against the same op untraced.
	var overhead []float64
	m := in.measured
	for j, r := range in.replayed {
		if j < len(m) && r.kind == opRead && !r.failed && !m[j].failed {
			overhead = append(overhead, us(r.lat-m[j].lat))
		}
	}

	d := func(name string) float64 { return float64(in.after.wal[name] - in.before.wal[name]) }
	p := in.probe
	return map[string]float64{
		"sqlparser.parse_us":                median(parse),
		"core.rewrite_us":                   median(rewriteWarm),
		"core.guard_hit_ratio":              ratio(hits, hits+misses),
		"core.claims_invalidated_per_write": ratio(float64(in.after.cache.ClaimsInvalidated-in.before.cache.ClaimsInvalidated), float64(writes)),
		"core.indexguards_share":            ratio(strat[core.IndexGuards], decisions),
		"core.indexquery_share":             ratio(strat[core.IndexQuery], decisions),
		"core.linearscan_share":             ratio(strat[core.LinearScan], decisions),
		"guard.regen_rewrite_us":            median(regenRewrite),
		"guard.regens_per_kread":            1000 * ratio(float64(in.after.cache.GuardRegens-in.before.cache.GuardRegens), float64(reads)),
		"guard.guards_per_read":             ratio(guards, float64(engineReads)),
		"guard.policies_per_guard":          ratio(policies, guards),
		"policy.write_us":                   median(writeUs),
		"wal.append_us":                     median(appendUs),
		"wal.fsync_us":                      ratio(float64(in.after.fsyncNS-in.before.fsyncNS)/1e3, d("wal_fsyncs")),
		"wal.fsyncs_per_write":              ratio(d("wal_fsyncs"), float64(writes)),
		"wal.bytes_per_write":               ratio(d("wal_bytes"), float64(writes)),
		"engine.exec_us":                    median(exec),
		"engine.ns_per_tuple":               ratio(execNs, tuples),
		"engine.tuples_per_row":             ratio(rowTuples, rows),
		"engine.tuples_per_deny_read":       ratio(denyTuples, float64(denyReads)),
		"engine.index_lookups_per_read":     ratio(lookups, float64(engineReads)),
		"engine.bitmap_or_share":            ratio(bitmap, scans),
		"engine.segments_pruned_share":      ratio(pruned, segs),
		"engine.vectorised_share":           ratio(vectorised, tuples),
		"engine.allocs_per_read":            ratio(float64(p.mallocs), float64(p.reads)),
		"engine.alloc_kb_per_read":          ratio(float64(p.allocB)/1024, float64(p.reads)),
		"server.wire_us_per_row":            median(p.wireUsPerRow),
		"server.bytes_per_row":              ratio(float64(p.wireBytes), float64(p.rows)),
		"client.first_row_us":               median(p.firstRowUs),
		"read_p99_ms":                       percentile(latencies(in.timed, 0, all, opRead), 99),
		"write_p99_ms":                      percentile(latencies(in.timed, 0, all, opGrant, opRevoke), 99),
		"error_rate":                        ratio(float64(failed), float64(attempted)),
		"trace.overhead_us":                 median(overhead),
		"trace.unattributed_us":             median(readUnattributed(in.ops, in.spans)),
	}
}

// readUnattributed returns, in us, each traced read's wall time that its
// layer spans do not cover.
func readUnattributed(ops []*opTrace, spans []span) []float64 {
	var out []float64
	for op, d := range unattributed(spans) {
		if ops[op].kind == opRead {
			out = append(out, us(d))
		}
	}
	return out
}

// traceFloorUs is the tolerance of the tracing check when the measured
// overhead is below it. Two runs of one read differ by far more than
// this, so a measured overhead under it is noise, often negative.
const traceFloorUs = 50

// checkTrace checks that a traced read's layer spans account for its wall
// time: no read's spans may cover more than its wall time, and the median
// uncovered time must stay within the tracing overhead, or traceFloorUs if
// that is larger. It returns what failed, or "".
func checkTrace(unattr []float64, overheadUs float64) string {
	for _, u := range unattr {
		if u < 0 {
			return fmt.Sprintf("a read's layer spans cover %.1fus more than its wall time", -u)
		}
	}
	if m, tol := median(unattr), max(overheadUs, traceFloorUs); m > tol {
		return fmt.Sprintf("reads leave a median %.1fus outside their layer spans, past the %.1fus tolerance", m, tol)
	}
	return ""
}
