package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/workload"
)

// testOptions runs a workload at test scale.
func testOptions(t *testing.T, wl string, seed int64, trace bool) options {
	return options{workload: wl, seed: seed, trace: trace, scale: "test", seconds: 0.2, workdir: t.TempDir()}
}

func runTest(t *testing.T, o options) *result {
	t.Helper()
	var log bytes.Buffer
	res, err := run(context.Background(), o, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", o.workload, err, log.String())
	}
	if !res.out.Correct {
		t.Fatalf("%s seed %d: correctness gate failed\n%s", o.workload, o.seed, log.String())
	}
	return res
}

// BENCHMARK.json declares exactly the gated workloads and the metrics the
// program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if want := workloadNames[:2]; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd")
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer")
	}
}

// Every metric is printed with its unit for every workload, traced and
// untraced, and the last line of output is the result object.
func TestEveryMetricPrinted(t *testing.T) {
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := runTest(t, testOptions(t, wl, 1, trace))
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.out.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %s: %+v", wl, trace, d.Name, d.Unit, m)
				}
			}
			if res.out.Attempted < 1 || res.out.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", wl, trace, res.out.Attempted, res.out.Failed)
			}
		}
	}
}

func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", campusWire, "--seed", "3", "--seconds", "0.2", "--trace", "0",
		"--scale", "test", "--workdir", t.TempDir()}
	if code := benchMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.Contains(stdout.String(), "seed=3") {
		t.Errorf("output does not record the seed:\n%s", stdout.String())
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	var keys []string
	for k := range out {
		keys = append(keys, k)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := out[k]; !ok {
			t.Errorf("result lacks %q (has %v)", k, keys)
		}
	}
	if len(out) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	if code := benchMain([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// A second seed runs clean through the correctness gate too.
func TestSecondSeed(t *testing.T) {
	for _, wl := range []string{campusAnalytics, hospitalChurn} {
		runTest(t, testOptions(t, wl, 2, false))
	}
}

// gateFixture is a test-scale hospital harness, a nurse, and a vitals
// row of a patient of another department that no base policy lets the
// nurse see, read at the given time of day.
func gateFixture(t *testing.T) (h *harness, nurse workload.StaffMember, row func(at string) []storage.Row,
	grant func(conds ...policy.ObjectCondition) *policy.Policy) {
	t.Helper()
	sc, err := scaleFor("test")
	if err != nil {
		t.Fatal(err)
	}
	e, err := setupHospital(sc.cfg, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	h, err = newHarness(specs[hospitalChurn], e, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range e.hospital.Staff {
		if s.Role == "nurse" {
			nurse = s
			break
		}
	}
	var patient workload.Patient
	for _, p := range e.hospital.Patients {
		if p.Dept != nurse.Dept {
			patient = p
			break
		}
	}
	row = func(at string) []storage.Row {
		return []storage.Row{{storage.NewInt(1 << 40), storage.NewInt(int64(patient.Dept*sc.cfg.Hospital.WardsPerDept + patient.Ward)),
			storage.NewInt(patient.ID), storage.NewInt(80), storage.MustTime(at), storage.NewDate(1)}}
	}
	grant = func(conds ...policy.ObjectCondition) *policy.Policy {
		return &policy.Policy{Owner: patient.ID, Querier: workload.WardGroup(nurse.Dept, nurse.Ward),
			Purpose: e.sc.Purpose, Relation: workload.TableVitals, Action: policy.Allow, Conditions: conds}
	}
	return h, nurse, row, grant
}

// injectedRead checks rows as a SELECT * read by querier that began at
// the checker's current clock.
func injectedRead(h *harness, querier string, rows []storage.Row) {
	o := op{kind: opRead, querier: querier, name: "injected", sql: "SELECT * FROM " + workload.TableVitals, rowCheck: true}
	h.checkRead(o, h.ck.Clock(), readOut{rows: rows, cols: make([]string, h.e.sc.Schema.Len())})
}

func mustRun(t *testing.T, h *harness, o op) {
	t.Helper()
	if r := h.runOp(context.Background(), o, nil); r.failed {
		t.Fatalf("op failed: %v", h.errors)
	}
}

// A row that only a revoked grant could justify, seen by a read that
// began after the revocation, fails the gate.
func TestRevokedRowFailsGate(t *testing.T) {
	h, nurse, row, grant := gateFixture(t)
	mustRun(t, h, op{kind: opGrant, grant: grant()})
	// While the grant lives the row is justified.
	injectedRead(h, nurse.Querier(), row("03:00"))
	if n, samples := h.violations(); n != 0 {
		t.Fatalf("row flagged while its grant was live: %v", samples)
	}
	mustRun(t, h, op{kind: opRevoke})
	injectedRead(h, nurse.Querier(), row("03:00"))
	v, samples := h.ck.Violations()
	if n, _ := h.violations(); v.RevokedRows != 1 || n != 1 {
		t.Fatalf("injected row from a revoked grant: violations %+v (%v), want one revoked row", v, samples)
	}
}

// A row of a live grant's owner outside the grant's time window fails
// the gate; a row inside it passes.
func TestRowOutsideGrantConditionsFailsGate(t *testing.T) {
	h, nurse, row, grant := gateFixture(t)
	mustRun(t, h, op{kind: opGrant, grant: grant(policy.RangeClosed("ts_time",
		storage.MustTime("10:00"), storage.MustTime("12:00")))})
	injectedRead(h, nurse.Querier(), row("11:00"))
	if n, samples := h.violations(); n != 0 {
		t.Fatalf("row inside the grant's window flagged: %v", samples)
	}
	injectedRead(h, nurse.Querier(), row("03:00"))
	if n, samples := h.violations(); n != 1 || h.gate.violations != 1 {
		t.Fatalf("row outside the grant's window: %d violations (%v), want one from the grant gate", n, samples)
	}
}

// The tracing check fails when spans overlap or leave too much of a read
// uncovered.
func TestCheckTrace(t *testing.T) {
	if msg := checkTrace([]float64{3, 5, 8}, -20); msg != "" {
		t.Errorf("small uncovered time failed: %s", msg)
	}
	if msg := checkTrace([]float64{3, -1, 8}, 0); msg == "" {
		t.Error("spans covering more than the wall time passed")
	}
	if msg := checkTrace([]float64{60, 70, 80}, 10); msg == "" {
		t.Error("a 70us median outside the spans passed a 50us floor")
	}
	if msg := checkTrace([]float64{60, 70, 80}, 100); msg != "" {
		t.Errorf("uncovered time within the measured overhead failed: %s", msg)
	}
}

// On hospital-churn the traced replay's work counters repeat exactly for
// one seed.
func TestHospitalCountsRepeat(t *testing.T) {
	var first map[string]int64
	for i := 0; i < 2; i++ {
		res := runTest(t, testOptions(t, hospitalChurn, 5, true))
		for _, k := range []string{"guard_regens", "claims_invalidated", "wal_bytes", "wal_fsyncs", "tuples_read", "rows"} {
			if res.counts[k] == 0 {
				t.Errorf("run %d: count %s is 0", i, k)
			}
		}
		if i == 0 {
			first = res.counts
		} else if !reflect.DeepEqual(first, res.counts) {
			t.Errorf("counts differ between runs of one seed:\n%v\n%v", first, res.counts)
		}
	}
}
