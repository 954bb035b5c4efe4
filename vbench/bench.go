package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vsensor"
	"vsensor/internal/analysis"
	"vsensor/internal/apps"
	"vsensor/internal/cluster"
	"vsensor/internal/detect"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
	"vsensor/internal/netsrv"
	"vsensor/internal/obs"
	"vsensor/internal/server"
)

//go:embed dense.mc
var denseSource string

// Fixed pipeline settings shared by every workload.
const (
	jitterPct = 0.02  // seeded per-rank compute jitter of the cluster
	pmuJitter = 0.005 // simulated PMU read error
	badMem    = 0.55  // memory speed of the planted node on cg4096-direct (paper Fig. 21)
	noiseCPU  = 0.5   // CPU speed of the planted node inside the dense noise window
	// threshold is the verdict threshold of the final report; it equals the
	// server's snapshot threshold, so /outliers polls and the final report
	// judge with the same rule.
	threshold  = server.DefaultSnapshotThreshold
	renderCol  = 2 * time.Millisecond
	pollPeriod = 10 * time.Millisecond
)

// sizing holds every size a workload depends on. fullSizing is the
// benchmark; the smoke test shrinks it.
type sizing struct {
	CGRanks, CGIters, CGWork int
	DenseRanks, DenseIters   int
	// DenseWindow is the CPU-noise window of the dense kernel in virtual ns.
	// It opens early in the run: later, each /outliers poll waits hundreds
	// of milliseconds behind checkpoints, so first_verdict_s would measure
	// when a slow poll happens to end rather than when ingest makes the
	// verdict readable. Poll starvation has its own per-layer metrics.
	DenseWindow [2]int64
}

var fullSizing = sizing{
	CGRanks: 4096, CGIters: 10, CGWork: 50,
	DenseRanks: 1024, DenseIters: 120,
	DenseWindow: [2]int64{40_000_000, 190_000_000},
}

// smokeSizing runs every workload in well under a second, for the tests
// and --smoke.
var smokeSizing = sizing{
	CGRanks: 32, CGIters: 3, CGWork: 4,
	DenseRanks: 32, DenseIters: 40,
	DenseWindow: [2]int64{20_000_000, 60_000_000},
}

// workload is one input set of the benchmark. BENCHMARK.json and
// layers.json say why each was chosen.
type workload struct {
	Name  string
	Ranks int
	RPN   int // ranks per node
	Src   string
	// Net routes records over a loopback session into a durable
	// group-commit server, turns Obs on and polls /outliers.
	Net bool
	// Window is the planted anomaly's active span in virtual ns.
	Window [2]int64
	// plant injects the anomaly on node.
	plant func(cl *cluster.Cluster, node int)
}

var workloadNames = []string{"cg4096-direct", "dense-direct", "dense-netwal"}

func newWorkload(name string, sz sizing) (*workload, error) {
	switch name {
	case "cg4096-direct":
		app, err := apps.Get("CG", apps.Scale{Iters: sz.CGIters, Work: sz.CGWork})
		if err != nil {
			return nil, err
		}
		return &workload{
			Name:   name,
			Ranks:  sz.CGRanks,
			RPN:    8,
			Src:    app.Source,
			Window: [2]int64{0, math.MaxInt64},
			plant:  func(cl *cluster.Cluster, node int) { cl.SetNodeMemSpeed(node, badMem) },
		}, nil
	case "dense-direct", "dense-netwal":
		w := &workload{
			Name:   name,
			Ranks:  sz.DenseRanks,
			RPN:    8,
			Src:    strings.ReplaceAll(denseSource, "@ITERS@", strconv.Itoa(sz.DenseIters)),
			Window: sz.DenseWindow,
			plant: func(cl *cluster.Cluster, node int) {
				cl.AddCPUNoise(node, sz.DenseWindow[0], sz.DenseWindow[1], noiseCPU)
			},
		}
		w.Net = name == "dense-netwal"
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// plantedNode derives the anomalous node from the seed (SplitMix64).
func (w *workload) plantedNode(seed int64) int {
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(w.Ranks/w.RPN))
}

// prepared is what a run needs from set-up: the compiled program and the
// cluster with the anomaly planted on node.
type prepared struct {
	prog *ir.Program
	cl   *cluster.Cluster
	node int
}

// setup compiles, identifies, instruments and builds the cluster, timing
// each step as a span when tr is non-nil. RunProgram identifies and
// instruments again from the compiled program; set-up pays for them here
// so that setup_s covers every step before the run.
func (w *workload) setup(seed int64, tr *tracer) (*prepared, error) {
	end := tr.begin("setup", "")
	defer end()
	sp := tr.begin("minic.parse", "setup")
	ast, err := minic.Parse(w.Src)
	sp()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("ir.build", "setup")
	prog, err := ir.Build(ast)
	if err == nil {
		err = ir.CheckStrict(prog)
	}
	sp()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("analysis.identify", "setup")
	res := analysis.AnalyzeWith(prog, analysis.Config{})
	sp()
	sp = tr.begin("instrument.apply", "setup")
	_ = instrument.Apply(res, instrument.Config{})
	sp()
	sp = tr.begin("workload.build", "setup")
	cl := cluster.New(cluster.Config{
		Nodes:        w.Ranks / w.RPN,
		RanksPerNode: w.RPN,
		Seed:         seed,
		JitterPct:    jitterPct,
	})
	node := w.plantedNode(seed)
	w.plant(cl, node)
	sp()
	return &prepared{prog: prog, cl: cl, node: node}, nil
}

// runResult is one pipeline run: its timings and the outputs the checks
// compare.
type runResult struct {
	SetupS, RunS, FirstVerdictS, AllocMB, RecordsPerS float64
	VerdictS, RenderS                                 float64
	Precision, Recall                                 float64
	TotalNs, Ingested, Raw                            int64
	OutlierHash                                       uint64
	Outliers                                          int
	PolledVerdict                                     bool
	Warm                                              bool // warm-up run: checked, not sampled
	PollMs                                            []float64
	Err                                               error // first failed check or run error
	rep                                               *vsensor.Report
	node                                              int
}

// run executes one full pipeline run on a fresh setup: RunProgram, then the
// final verdict, then the report render.
func (w *workload) run(seed int64, tr *tracer) *runResult {
	r := &runResult{}
	t0 := time.Now()
	p, err := w.setup(seed, tr)
	r.SetupS = time.Since(t0).Seconds()
	if err != nil {
		r.Err = fmt.Errorf("setup: %w", err)
		return r
	}
	r.node = p.node
	opt := vsensor.Options{
		Ranks:        w.Ranks,
		Cluster:      p.cl,
		Seed:         seed,
		PMUJitterPct: pmuJitter,
	}
	var o *obs.Obs
	if w.Net {
		o = obs.New()
		opt.Obs = o
		opt.Listen = "127.0.0.1:0"
		opt.Reconnect = &netsrv.ReconnectConfig{}
		opt.Durability = &server.DurabilityConfig{FlushEvery: 64, Coalesce: true}
	}
	planted := w.plantedCell(p.node)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	endRun := tr.begin("run", "")
	start := time.Now()
	var pl *poller
	if w.Net {
		pl = startPoller(o.Handler(), start, planted, tr)
	}
	sp := tr.begin("vsensor.RunProgram", "run")
	rep, err := vsensor.RunProgram(p.prog, opt)
	sp()
	if pl != nil {
		// The poll in flight may finish while the verdict and render run;
		// only the pipeline is timed, so the poller is joined after them.
		close(pl.quit)
	}
	if err != nil {
		endRun()
		if pl != nil {
			<-pl.done
		}
		r.Err = fmt.Errorf("run: %w", err)
		return r
	}
	sp = tr.begin("server.verdict", "run")
	tv := time.Now()
	verdict := rep.Server.InterProcessReport(threshold)
	tr2 := time.Now()
	sp()
	sp = tr.begin("vis.render", "run")
	_ = rep.Matrices(renderCol)
	_ = rep.ReportText(renderCol, w.RPN)
	tEnd := time.Now()
	sp()
	endRun()
	if pl != nil {
		<-pl.done
	}
	runtime.ReadMemStats(&m1)

	r.rep = rep
	r.RunS = tEnd.Sub(start).Seconds()
	r.VerdictS = tr2.Sub(tv).Seconds()
	r.RenderS = tEnd.Sub(tr2).Seconds()
	r.FirstVerdictS = tr2.Sub(start).Seconds()
	if pl != nil {
		r.PollMs = pl.pollMs
		if pl.firstS > 0 {
			r.FirstVerdictS, r.PolledVerdict = pl.firstS, true
		}
	}
	r.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	cov := rep.Coverage()
	r.TotalNs = rep.Result.TotalNs
	r.Ingested = cov.IngestedRecords
	r.RecordsPerS = float64(cov.IngestedRecords) / r.RunS
	for _, rs := range rep.Result.Ranks {
		r.Raw += int64(rs.Records)
	}
	r.Outliers = len(verdict.Outliers)
	r.OutlierHash = hashOutliers(verdict.Outliers)
	r.Precision, r.Recall = score(verdict.Outliers, rep.Server.Records(), planted)

	switch {
	case cov.ExpectedRecords == 0 || cov.Fraction() != 1:
		r.Err = fmt.Errorf("coverage %d/%d records, want 100%%", cov.IngestedRecords, cov.ExpectedRecords)
	case !anyPlanted(verdict.Outliers, planted):
		r.Err = fmt.Errorf("planted node %d not flagged inside the anomaly window (%d outliers)", p.node, len(verdict.Outliers))
	}
	return r
}

func anyPlanted(out []server.Outlier, planted func(rank int, sliceNs int64) bool) bool {
	for _, o := range out {
		if planted(o.Rank, o.SliceNs) {
			return true
		}
	}
	return false
}

// cell is one (rank, detection slice) pair, the unit precision and recall
// count.
type cell struct {
	rank  int
	slice int64
}

// plantedCell reports whether a (rank, slice) cell lies inside the planted
// anomaly: the rank is on the planted node and the slice overlaps the
// anomaly window.
func (w *workload) plantedCell(node int) func(rank int, sliceNs int64) bool {
	return func(rank int, sliceNs int64) bool {
		return rank/w.RPN == node && sliceNs < w.Window[1] && sliceNs+detect.DefaultSliceNs > w.Window[0]
	}
}

// score returns precision and recall of the flagged cells against the
// planted ones: a planted cell is a rank on the planted node in a slice
// that overlaps the anomaly window and in which the rank reported.
func score(out []server.Outlier, recs []detect.SliceRecord, planted func(int, int64) bool) (precision, recall float64) {
	plantedCells := map[cell]bool{}
	for _, rec := range recs {
		if planted(rec.Rank, rec.SliceNs) {
			plantedCells[cell{rec.Rank, rec.SliceNs}] = true
		}
	}
	flagged := map[cell]bool{}
	for _, o := range out {
		flagged[cell{o.Rank, o.SliceNs}] = true
	}
	hit := 0
	for c := range flagged {
		if plantedCells[c] {
			hit++
		}
	}
	if len(flagged) > 0 {
		precision = float64(hit) / float64(len(flagged))
	}
	if len(plantedCells) > 0 {
		recall = float64(hit) / float64(len(plantedCells))
	}
	return precision, recall
}

// hashOutliers fingerprints the verdict so runs can be compared exactly.
func hashOutliers(out []server.Outlier) uint64 {
	s := append([]server.Outlier(nil), out...)
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.SliceNs != b.SliceNs {
			return a.SliceNs < b.SliceNs
		}
		if a.Sensor != b.Sensor {
			return a.Sensor < b.Sensor
		}
		return a.Rank < b.Rank
	})
	h := fnv.New64a()
	for _, o := range s {
		fmt.Fprintf(h, "%d/%d/%d/%x;", o.Sensor, o.SliceNs, o.Rank, math.Float64bits(o.Perf))
	}
	return h.Sum64()
}

// expectation is the recorded virtual time and ingested record count of a
// workload at one seed.
type expectation struct {
	TotalNs         int64 `json:"total_ns"`
	IngestedRecords int64 `json:"ingested_records"`
}

// expectTable maps workload → seed → expectation.
type expectTable map[string]map[string]expectation

//go:embed expected.json
var expectedJSON []byte

func loadExpectations(data []byte) (expectTable, error) {
	t := expectTable{}
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("expected values: %w", err)
	}
	return t, nil
}

// checker applies the cross-run output checks of one set of runs: recorded
// values when the table has the seed, and equality with the set's first
// run in every case.
type checker struct {
	want *expectation
	ref  *runResult
}

func newChecker(t expectTable, workload string, seed int64) *checker {
	c := &checker{}
	if e, ok := t[workload][strconv.FormatInt(seed, 10)]; ok {
		c.want = &e
	}
	return c
}

// check sets r.Err when r fails a check, and returns whether it passed.
func (c *checker) check(r *runResult) bool {
	if r.Err != nil {
		return false
	}
	if c.want != nil && (r.TotalNs != c.want.TotalNs || r.Ingested != c.want.IngestedRecords) {
		r.Err = fmt.Errorf("virtual time %d ns and %d ingested records, recorded %d ns and %d records",
			r.TotalNs, r.Ingested, c.want.TotalNs, c.want.IngestedRecords)
		return false
	}
	if c.ref == nil {
		c.ref = r
		return true
	}
	if r.TotalNs != c.ref.TotalNs || r.Ingested != c.ref.Ingested || r.OutlierHash != c.ref.OutlierHash {
		r.Err = fmt.Errorf("outputs differ within the set: %d ns, %d records, outliers %x; first run %d ns, %d records, outliers %x",
			r.TotalNs, r.Ingested, r.OutlierHash, c.ref.TotalNs, c.ref.Ingested, c.ref.OutlierHash)
		return false
	}
	return true
}

// poller is the operator's dashboard on dense-netwal: a closed loop that
// reads /outliers through the in-process handler once per pollPeriod and
// notes when a verdict first names a planted cell.
type poller struct {
	quit   chan struct{}
	done   chan struct{}
	firstS float64
	pollMs []float64
}

func startPoller(h http.Handler, start time.Time, planted func(int, int64) bool, tr *tracer) *poller {
	p := &poller{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		next := time.Now()
		for {
			end := tr.begin("obs.poll", "run")
			t0 := time.Now()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/outliers", nil))
			var body struct {
				Outliers []server.Outlier `json:"outliers"`
			}
			seen := rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &body) == nil &&
				anyPlanted(body.Outliers, planted)
			now := time.Now()
			end()
			p.pollMs = append(p.pollMs, float64(now.Sub(t0).Nanoseconds())/1e6)
			if seen && p.firstS == 0 {
				p.firstS = now.Sub(start).Seconds()
			}
			next = next.Add(pollPeriod)
			if next.Before(now) {
				next = now
			}
			t := time.NewTimer(time.Until(next))
			select {
			case <-p.quit:
				t.Stop()
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, parent string) func() {
	if t == nil {
		return func() {}
	}
	s := time.Now()
	return func() {
		e := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{
			Name: name, Parent: parent,
			StartUs: float64(s.Sub(t.t0).Nanoseconds()) / 1e3,
			DurUs:   float64(e.Sub(s).Nanoseconds()) / 1e3,
		})
		t.mu.Unlock()
	}
}

// total sums the durations of every span with this name, in seconds.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var us float64
	for _, s := range t.spans {
		if s.Name == name {
			us += s.DurUs
		}
	}
	return us / 1e6
}
