package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/experiment"
	"github.com/sieve-db/sieve/internal/loadgen"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/wal"
	"github.com/sieve-db/sieve/internal/workload"
)

// Workload names, as passed to --workload.
const (
	campusAnalytics = "campus-analytics"
	hospitalChurn   = "hospital-churn"
	campusWire      = "campus-wire"
)

// spec describes one workload: how its environment is built and the op
// stream its one closed-loop client draws from.
type spec struct {
	wire   bool // the client reaches the system through sieve-server
	setup  func(cfg experiment.Config, dir string, warm *recorder) (*env, error)
	stream func(e *env, seed int64) *stream
}

var specs = map[string]*spec{
	campusAnalytics: {setup: setupCampusAnalytics, stream: campusAnalyticsStream},
	hospitalChurn:   {setup: setupHospital, stream: hospitalStream},
	campusWire:      {wire: true, setup: setupCampusWire, stream: campusWireStream},
}

// workloadNames lists the workloads in documentation order. BENCHMARK.json
// declares only the first two: campus-wire's small, wake-up-bound ops
// spread beyond any bound of at most 0.25 between runs on a shared host
// (README.md), so it runs on demand, not in the regression gate.
var workloadNames = []string{campusAnalytics, hospitalChurn, campusWire}

// scale is one --scale: the corpus sizes and the run's sample floors.
type scale struct {
	cfg experiment.Config
	// setupReps set-ups are timed; setup_s is their median.
	setupReps int
	// minReads is the fewest reads the untraced run holds, so that
	// read_p99_ms has 10 samples beyond it.
	minReads int
	// replayOps is how many ops the traced run replays; the untraced run
	// always covers at least this prefix, so the two compare op by op.
	replayOps int
	// probeReads is the length of the traced run's probe pass.
	probeReads int
}

// scaleFor maps --scale to its sizes. The datasets are fixed per scale;
// --seed drives only the op streams. Test scale keeps the package tests
// to seconds.
func scaleFor(name string) (scale, error) {
	switch name {
	case "medium":
		return scale{cfg: experiment.MediumConfig(), setupReps: 9, minReads: 1000, replayOps: 600, probeReads: 60}, nil
	case "test":
		return scale{cfg: experiment.TestConfig(), setupReps: 2, replayOps: 120, probeReads: 10}, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (want medium or test)", name)
}

// env is one built system under test plus the ground truth the
// correctness gate holds its results to.
type env struct {
	m        *core.Middleware
	sc       *loadgen.Scenario
	campus   *workload.Campus
	hospital *workload.Hospital

	wal    *wal.Manager
	walDir string

	// The wire front end: booted in set-up by campus-wire, on demand by
	// the traced run's probe pass elsewhere.
	srv       *server.Server
	srvDone   chan error
	base      string
	transport *countingTransport
	hc        *http.Client
	sessions  map[string]*client.Session
	admin     *client.Client
}

// startWAL attaches a fresh write-ahead log with fsync on every append
// (sieve-server's -wal-sync default). Start cuts the initial snapshot of
// the loaded state; the guard-cache relations are derived state and are
// not logged.
func (e *env) startWAL(dir string) error {
	walDir, err := os.MkdirTemp(dir, "wal-")
	if err != nil {
		return err
	}
	mgr, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways, SkipTables: workload.GuardSkipTables()})
	if err != nil {
		return err
	}
	if err := mgr.Start(e.m.DB(), e.m.ProtectedRelations); err != nil {
		return err
	}
	e.m.DB().SetWAL(mgr)
	e.m.Store().SetDurability(mgr)
	e.m.SetDurability(mgr)
	e.wal, e.walDir = mgr, walDir
	return nil
}

// warmGuards generates every querier's guard with one rewrite each, so
// the measured reads start on a warm guard cache. With a recorder, each
// rewrite is traced as its own op.
func (e *env) warmGuards(rec *recorder) error {
	for _, q := range e.sc.Queriers {
		qm := policy.Metadata{Querier: q, Purpose: e.sc.Purpose}
		sql := "SELECT * FROM " + e.sc.Relation
		if rec == nil {
			if _, _, err := e.m.RewriteQuery(sql, qm); err != nil {
				return fmt.Errorf("guard warm-up for %s: %w", q, err)
			}
			continue
		}
		t := rec.newOp(opWarm)
		regens := e.m.CacheStats().GuardRegens
		sp := t.begin("core.rewrite")
		_, rep, err := e.m.RewriteQuery(sql, qm)
		t.rewrite = t.end(sp)
		if err != nil {
			return fmt.Errorf("guard warm-up for %s: %w", q, err)
		}
		t.regen = e.m.CacheStats().GuardRegens > regens
		t.report(rep)
		rec.finish(t)
	}
	return nil
}

// bootServer puts sieve-server in front of the middleware on a loopback
// listener, with the WAL's counters and timings wired in as
// cmd/sieve-server does. All sessions share one HTTP client whose
// transport counts response bytes.
func (e *env) bootServer() error {
	if e.srv != nil {
		return nil
	}
	cfg := server.Config{Middleware: e.m, AllowDemoTokens: true}
	if e.wal != nil {
		mgr := e.wal
		cfg.ExtraVarz = mgr.Varz
		cfg.WALTimings = func() (int64, int64) { return mgr.AppendNanos(), mgr.FsyncNanos() }
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv, e.srvDone = srv, make(chan error, 1)
	go func() { e.srvDone <- srv.Serve(l) }()
	e.base = "http://" + l.Addr().String()
	e.transport = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 1}}
	e.hc = &http.Client{Transport: e.transport}
	e.sessions = map[string]*client.Session{}
	e.admin = client.New(e.base, "demo:bench-admin|"+e.sc.Purpose+"|admin", client.WithHTTPClient(e.hc))
	return nil
}

// wireSession returns the open wire session of a querier, opening it on
// first use.
func (e *env) wireSession(ctx context.Context, querier string) (*client.Session, error) {
	if s, ok := e.sessions[querier]; ok {
		return s, nil
	}
	c := client.New(e.base, "demo:"+querier+"|"+e.sc.Purpose, client.WithHTTPClient(e.hc))
	s, err := c.OpenSession(ctx, "")
	if err != nil {
		return nil, fmt.Errorf("open wire session for %s: %w", querier, err)
	}
	e.sessions[querier] = s
	return s, nil
}

// close stops the server, closes the log and removes its directory.
func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(ctx) // a drain timeout still closes every connection
		cancel()
		<-e.srvDone
		e.hc.CloseIdleConnections()
		e.srv = nil
	}
	if e.wal != nil {
		_ = e.wal.Close() // the directory is removed next
		_ = os.RemoveAll(e.walDir)
		e.wal = nil
	}
}

// topUsers returns the n most-targeted user queriers of the campus corpus:
// the subjects of the paper's Table 8.
func topUsers(ce *experiment.CampusEnv, n int) []string {
	var out []string
	for _, q := range workload.TopQueriers(ce.Policies, n*3, 1) {
		if _, ok := ce.Campus.UserByName(q); ok {
			out = append(out, q)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func campusScenario(ce *experiment.CampusEnv, queriers []string, purpose string) *loadgen.Scenario {
	return &loadgen.Scenario{
		Name: "campus", M: ce.M, Relation: workload.TableWiFi,
		Schema:       ce.Campus.DB.MustTable(workload.TableWiFi).Schema,
		Purpose:      purpose,
		Queriers:     queriers,
		Groups:       ce.Campus.Groups(),
		BasePolicies: ce.Policies,
	}
}

func setupCampusAnalytics(cfg experiment.Config, dir string, warm *recorder) (*env, error) {
	ce, err := experiment.NewCampusEnv(cfg, engine.MySQL())
	if err != nil {
		return nil, err
	}
	e := &env{m: ce.M, campus: ce.Campus,
		sc: campusScenario(ce, topUsers(ce, cfg.Queriers), "analytics")}
	if len(e.sc.Queriers) == 0 {
		return nil, fmt.Errorf("campus corpus has no user queriers")
	}
	if err := e.startWAL(dir); err != nil {
		return nil, err
	}
	if err := e.warmGuards(warm); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func setupHospital(cfg experiment.Config, dir string, _ *recorder) (*env, error) {
	he, err := experiment.NewHospitalEnv(cfg, engine.MySQL())
	if err != nil {
		return nil, err
	}
	var staff []string
	for _, s := range he.Hospital.Staff {
		staff = append(staff, s.Querier())
	}
	e := &env{m: he.M, hospital: he.Hospital, sc: &loadgen.Scenario{
		Name: "hospital", M: he.M, Relation: workload.TableVitals,
		Schema:       he.Hospital.DB.MustTable(workload.TableVitals).Schema,
		Purpose:      "treatment",
		Queriers:     staff,
		DenyQueriers: denyQueriers,
		Groups:       he.Hospital.Groups(),
		BasePolicies: he.Policies,
	}}
	if err := e.startWAL(dir); err != nil {
		return nil, err
	}
	return e, nil
}

// denyQueriers hold no policies: every read they make must come back
// empty.
var denyQueriers = []string{"intruder:1", "intruder:2"}

func setupCampusWire(cfg experiment.Config, dir string, warm *recorder) (*env, error) {
	ce, err := experiment.NewCampusEnv(cfg, engine.MySQL())
	if err != nil {
		return nil, err
	}
	// The four non-visitor profile principals and every affinity group:
	// broad grants, few guards, many rows.
	var queriers []string
	for _, p := range []workload.Profile{workload.Staff, workload.Faculty, workload.Undergrad, workload.Grad} {
		queriers = append(queriers, workload.ProfileName(p))
	}
	for g := 0; g < cfg.Campus.GroupCount; g++ {
		queriers = append(queriers, workload.GroupName(g))
	}
	e := &env{m: ce.M, campus: ce.Campus, sc: campusScenario(ce, queriers, "analytics")}
	if err := e.startWAL(dir); err != nil {
		return nil, err
	}
	if err := e.warmGuards(warm); err != nil {
		e.close()
		return nil, err
	}
	if err := e.bootServer(); err != nil {
		e.close()
		return nil, err
	}
	ctx := context.Background()
	for _, q := range queriers {
		if _, err := e.wireSession(ctx, q); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// stream is the client's op sequence. Each workload's reads come from a
// fixed table, built in blocks from generators seeded by the dataset; the
// run seed shuffles every block. Two seeds therefore run the same
// instances in a different order, which keeps run-to-run spread down to
// the host's own.
// Writes sit in fixed slots between reads and alternate grant and revoke;
// a revoke takes the oldest live grant when it runs.
type stream struct {
	// prelude ops run before measurement starts (not timed).
	prelude []op

	block    func(k int, r *rand.Rand) []op // the k-th block of reads
	grant    func() *policy.Policy          // the next grant of the table
	every    int                            // every n-th op is a write
	r        *rand.Rand
	reads    []op
	k, n     int
	revoking bool
}

func (s *stream) next() op {
	s.n++
	if s.n%s.every == 0 {
		s.revoking = !s.revoking
		if !s.revoking {
			return op{kind: opRevoke}
		}
		return op{kind: opGrant, grant: s.grant()}
	}
	if len(s.reads) == 0 {
		s.reads = s.block(s.k, s.r)
		s.k++
		s.r.Shuffle(len(s.reads), func(i, j int) { s.reads[i], s.reads[j] = s.reads[j], s.reads[i] })
	}
	o := s.reads[0]
	s.reads = s.reads[1:]
	return o
}

// runRand derives the shuffling generator from the run seed.
func runRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + 17))
}

// tableRand is a fixed generator of a workload's op table; stream
// distinguishes the generators of one table.
func tableRand(base int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(base*1000003 + int64(stream)))
}

// campusAnalyticsStream is Table 8 reads with 1 op in 8 an administrative
// policy write. A block holds every (querier, template, selectivity)
// combination once; each is the next fresh Campus.Query instance from
// that combination's own generator, fully materialised. Writes grant to
// and revoke from an audit principal no reader resolves to, so the
// readers' guards stay warm.
func campusAnalyticsStream(e *env, seed int64) *stream {
	type cell struct {
		querier string
		tmpl    workload.QueryTemplate
		class   workload.SelectivityClass
		gen     *rand.Rand
	}
	var cells []cell
	for _, q := range e.sc.Queriers {
		for _, t := range workload.QueryTemplates {
			for _, c := range workload.SelectivityClasses {
				cells = append(cells, cell{q, t, c, tableRand(e.campus.Cfg.Seed, len(cells))})
			}
		}
	}
	block := func(int, *rand.Rand) []op {
		out := make([]op, len(cells))
		for i, c := range cells {
			out[i] = op{kind: opRead, querier: c.querier, purpose: e.sc.Purpose,
				name: string(c.tmpl) + "_" + string(c.class), sql: e.campus.Query(c.tmpl, c.class, c.gen),
				rowCheck: c.tmpl != workload.Q3}
		}
		return out
	}
	return &stream{block: block, grant: auditGrants(e, "audit:analytics", tableRand(e.campus.Cfg.Seed, 50)),
		every: 8, r: runRand(seed)}
}

// auditGrants draws grants of one AP's events to a principal no reader
// resolves to.
func auditGrants(e *env, principal string, g *rand.Rand) func() *policy.Policy {
	return func() *policy.Policy {
		return &policy.Policy{
			Owner: e.campus.Users[g.Intn(len(e.campus.Users))].ID, Querier: principal,
			Purpose: e.sc.Purpose, Relation: workload.TableWiFi, Action: policy.Allow,
			Conditions: []policy.ObjectCondition{policy.Compare("wifiAP", sqlparser.CmpEq,
				storage.NewInt(int64(g.Intn(e.campus.Cfg.APs))))},
		}
	}
}

// hospitalStream is the churn workload: 1 op in 4 is a
// policy write (grants to ward, department and role group principals
// alternating with revokes of the oldest live grant). A block of 16 reads
// holds 15 staff queriers, taken in turn from a fixed shuffle of all
// staff, and one default-deny querier; each streams a fresh SELECT *
// instance of a hospital corpus shape, shapes in rotation, and closes
// after 8 rows.
func hospitalStream(e *env, seed int64) *stream {
	h := e.hospital
	cfg := h.Cfg
	wards := cfg.Departments * cfg.WardsPerDept
	g := tableRand(cfg.Seed, 0)
	staff := g.Perm(len(e.sc.Queriers))
	next, shape := 0, 0
	read := func(querier string, deny bool) op {
		var name, where string
		switch shape % 5 {
		case 0:
			lo := 6 + g.Intn(13)
			name, where = "day_shift", fmt.Sprintf("V.ts_time BETWEEN TIME '%02d:00' AND TIME '%02d:00'", lo, lo+1+g.Intn(4))
		case 1:
			ws := make([]string, 5)
			for i := range ws {
				ws[i] = fmt.Sprint(g.Intn(wards))
			}
			name, where = "ward_rounds", "V.ward IN ("+strings.Join(ws, ", ")+")"
		case 2:
			lo := g.Intn(max(1, cfg.Days-3))
			name, where = "recent_vitals", fmt.Sprintf("V.ts_date BETWEEN DATE '%s' AND DATE '%s'",
				storage.FormatDate(storage.NewDate(int64(lo))), storage.FormatDate(storage.NewDate(int64(lo+3))))
		case 3:
			ps := make([]string, 4)
			for i := range ps {
				ps[i] = fmt.Sprint(h.Patients[g.Intn(len(h.Patients))].ID)
			}
			name, where = "patient_chart", "V.owner IN ("+strings.Join(ps, ", ")+")"
		default:
			name, where = "tachycardia", fmt.Sprintf("V.pulse >= %d", 100+g.Intn(31))
		}
		shape++
		return op{kind: opRead, querier: querier, purpose: e.sc.Purpose, name: name, limit: 8, deny: deny,
			sql: "SELECT * FROM " + workload.TableVitals + " AS V WHERE " + where, rowCheck: true}
	}
	block := func(k int, _ *rand.Rand) []op {
		var out []op
		for i := 0; i < 15; i++ {
			out = append(out, read(e.sc.Queriers[staff[next%len(staff)]], false))
			next++
		}
		return append(out, read(denyQueriers[k%len(denyQueriers)], true))
	}
	grants := 0
	gg := tableRand(cfg.Seed, 50)
	grant := func() *policy.Policy {
		var principal string
		switch grants % 3 {
		case 0:
			principal = workload.WardGroup(gg.Intn(cfg.Departments), gg.Intn(cfg.WardsPerDept))
		case 1:
			principal = workload.DeptGroup(gg.Intn(cfg.Departments))
		default:
			principal = workload.RoleGroup(workload.HospitalRoles[gg.Intn(len(workload.HospitalRoles))])
		}
		grants++
		start := 6 + gg.Intn(12)
		return &policy.Policy{
			Owner: h.Patients[gg.Intn(len(h.Patients))].ID, Querier: principal,
			Purpose: e.sc.Purpose, Relation: workload.TableVitals, Action: policy.Allow,
			Conditions: []policy.ObjectCondition{policy.RangeClosed("ts_time",
				storage.NewTime(int64(start)*3600), storage.NewTime(int64(start+2+gg.Intn(5))*3600))},
		}
	}
	st := &stream{block: block, grant: grant, every: 4, r: runRand(seed)}
	// Eight live grants before measurement, so a revoke never finds the
	// grant it takes younger than a few reads.
	for i := 0; i < 8; i++ {
		st.prelude = append(st.prelude, op{kind: opGrant, grant: grant()})
	}
	return st
}

// campusWireStream is the deployment path: 1 op in 4 is
// an administrative policy write over the wire to an audit principal no
// reader resolves to. A block holds every (principal, shape) pair once:
// SELECT * over the table or over a time window, or a projection over a
// date window, with windows from the table's generator. One read in four
// of the table streams 8 rows and closes early.
func campusWireStream(e *env, seed int64) *stream {
	cfg := e.campus.Cfg
	g := tableRand(cfg.Seed, 200)
	reads := 0
	block := func(_ int, _ *rand.Rand) []op {
		var out []op
		for _, q := range e.sc.Queriers {
			for shape := 0; shape < 3; shape++ {
				o := op{kind: opRead, querier: q, purpose: e.sc.Purpose}
				reads++
				if reads%4 == 0 {
					o.limit = 8
				}
				switch shape {
				case 0:
					o.name, o.sql, o.rowCheck = "table", "SELECT * FROM "+workload.TableWiFi, true
				case 1:
					lo := 8 + g.Intn(8)
					o.name, o.rowCheck = "window", true
					o.sql = fmt.Sprintf("SELECT * FROM %s WHERE ts_time BETWEEN TIME '%02d:00' AND TIME '%02d:00'",
						workload.TableWiFi, lo, lo+2+g.Intn(4))
				default:
					d := g.Intn(max(1, cfg.Days-10))
					o.name = "projection"
					o.sql = fmt.Sprintf("SELECT id, owner, wifiAP FROM %s WHERE ts_date BETWEEN DATE '%s' AND DATE '%s'",
						workload.TableWiFi, storage.FormatDate(storage.NewDate(int64(d))),
						storage.FormatDate(storage.NewDate(int64(d+10))))
				}
				out = append(out, o)
			}
		}
		return out
	}
	return &stream{block: block, grant: auditGrants(e, "audit:wire", tableRand(cfg.Seed, 250)),
		every: 4, r: runRand(seed)}
}
