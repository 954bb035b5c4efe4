package vsensor_test

import (
	"strings"
	"testing"
	"time"

	vsensor "vsensor"
	"vsensor/internal/analysis"
	"vsensor/internal/apps"
	"vsensor/internal/cluster"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
)

func TestPipelineQuickstart(t *testing.T) {
	src := `
func main() {
    for (int i = 0; i < 30; i++) {
        for (int k = 0; k < 10; k++) {
            flops(5000);
        }
        mpi_allreduce(64, 1.0);
    }
}`
	rep, err := vsensor.Run(src, vsensor.Options{Ranks: 4, CollectRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Instrumented.Sensors) != 2 {
		t.Fatalf("sensors = %d", len(rep.Instrumented.Sensors))
	}
	if len(rep.Records) == 0 {
		t.Fatal("no records collected")
	}
	if rep.DataVolume() <= 0 {
		t.Error("no data shipped to analysis server")
	}
	d := rep.Distribution()
	if d.Coverage() <= 0 || d.FrequencyHz() <= 0 {
		t.Errorf("coverage=%v freq=%v", d.Coverage(), d.FrequencyHz())
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := vsensor.Run("func main() {", vsensor.Options{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := vsensor.Run("func f() {}\nfunc f() {}", vsensor.Options{}); err == nil {
		t.Error("resolve error not surfaced")
	}
	if _, err := vsensor.Run("func main() { boom(); }", vsensor.Options{Ranks: 1}); err == nil {
		t.Error("runtime error not surfaced")
	}
}

// A bad node (slow memory) shows as a persistent low-performance rank band
// in the computation matrix — the Fig. 21 case study shape.
func TestBadNodeDetected(t *testing.T) {
	app := apps.MustGet("CG", apps.Scale{Iters: 40, Work: 60})
	cl := cluster.New(cluster.Config{Nodes: 8, RanksPerNode: 4})
	cl.SetNodeMemSpeed(5, 0.55) // ranks 20..23

	rep, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 32, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Matrices(20 * time.Millisecond)[ir.Computation]
	if m == nil {
		t.Fatal("no computation matrix")
	}
	bands := m.LowRankBands(0.85, 0.5)
	if len(bands) != 1 {
		t.Fatalf("bands = %+v\n%s", bands, m.ASCII(32, 60))
	}
	if bands[0].First != 20 || bands[0].Last != 23 {
		t.Errorf("band = %+v, want ranks 20-23", bands[0])
	}
	// Inter-process analysis flags the same ranks.
	outs := rep.Server.InterProcessOutliers(0.85)
	if len(outs) == 0 {
		t.Fatal("no inter-process outliers")
	}
	for _, o := range outs {
		if o.Rank < 20 || o.Rank > 23 {
			t.Errorf("unexpected outlier rank %d", o.Rank)
		}
	}
}

// A network degradation window shows as a time-bounded low column across
// ranks in the network matrix — the Fig. 22 case study shape.
func TestNetworkWindowDetected(t *testing.T) {
	app := apps.MustGet("FT", apps.Scale{Iters: 60, Work: 40})
	cl := cluster.New(cluster.Config{Nodes: 8, RanksPerNode: 4})

	// First a clean run to find the run length, then degrade the middle.
	clean, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 32, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	mid := clean.Result.TotalNs / 2
	cl2 := cluster.New(cluster.Config{Nodes: 8, RanksPerNode: 4})
	cl2.AddNetWindow(mid/2, mid*3/2, 0.15)

	rep, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 32, Cluster: cl2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.TotalNs <= clean.Result.TotalNs*12/10 {
		t.Errorf("degraded run should be visibly slower: %d vs %d", rep.Result.TotalNs, clean.Result.TotalNs)
	}
	m := rep.Matrices(20 * time.Millisecond)[ir.Network]
	if m == nil {
		t.Fatal("no network matrix")
	}
	wins := m.LowTimeWindows(0.7, 0.8)
	if len(wins) == 0 {
		t.Fatalf("no low window found\n%s", m.ASCII(32, 60))
	}
	// The window must overlap the injected one.
	found := false
	for _, w := range wins {
		if w.StartNs < mid*3/2 && w.EndNs > mid/2 {
			found = true
		}
	}
	if !found {
		t.Errorf("windows %+v do not overlap injection [%d,%d)", wins, mid/2, mid*3/2)
	}
	// The computation matrix must NOT show the same window (root cause is
	// the network, paper §5.5: the sensor type identifies the component).
	if mc := rep.Matrices(20 * time.Millisecond)[ir.Computation]; mc != nil {
		if cw := mc.LowTimeWindows(0.7, 0.8); len(cw) > 0 {
			t.Errorf("computation matrix wrongly shows windows: %+v", cw)
		}
	}
}

// Instrumentation overhead stays small (paper: <4%).
func TestOverheadUnderFourPercent(t *testing.T) {
	app := apps.MustGet("SP", apps.Scale{Iters: 30, Work: 80})
	base, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 8, Uninstrumented: true})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	overhead := float64(ins.Result.TotalNs-base.Result.TotalNs) / float64(base.Result.TotalNs)
	if overhead > 0.04 {
		t.Errorf("overhead = %.3f, want < 0.04", overhead)
	}
	if overhead < 0 {
		t.Errorf("instrumented run faster than baseline: %.4f", overhead)
	}
}

// The profiler baseline cannot localize injected noise; vSensor can —
// the §6.4 comparison.
func TestNoiseInjectionProfilerVsSensor(t *testing.T) {
	app := apps.MustGet("CG", apps.Scale{Iters: 200, Work: 250})
	mk := func() *cluster.Cluster {
		return cluster.New(cluster.Config{Nodes: 16, RanksPerNode: 2})
	}

	clean, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 32, Cluster: mk(), Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	total := clean.Result.TotalNs

	noisy := mk()
	// Inject noise on nodes 4-5 (ranks 8-11) during the middle third.
	noisy.AddCPUNoise(4, total/3, 2*total/3, 0.3)
	noisy.AddCPUNoise(5, total/3, 2*total/3, 0.3)
	rep, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 32, Cluster: noisy, Profile: true})
	if err != nil {
		t.Fatal(err)
	}

	// The profiler sees MPI time grow (misleading) but has no location.
	if rep.Profiler.MeanMPISeconds() <= clean.Profiler.MeanMPISeconds() {
		t.Logf("note: MPI time did not grow (%.3f vs %.3f)", rep.Profiler.MeanMPISeconds(), clean.Profiler.MeanMPISeconds())
	}

	// vSensor's computation matrix localizes the block in time AND ranks.
	m := rep.Matrices(2 * time.Millisecond)[ir.Computation]
	blocks := m.LowBlocks(0.8, 0.02)
	if len(blocks) == 0 {
		t.Fatalf("no variance blocks found\n%s", m.ASCII(32, 60))
	}
	b := blocks[0]
	if b.FirstRank > 11 || b.LastRank < 8 {
		t.Errorf("block ranks [%d,%d], want overlapping 8-11", b.FirstRank, b.LastRank)
	}
	if b.EndNs < total/3 || b.StartNs > 2*total/3 {
		t.Errorf("block time [%d,%d] outside injection window", b.StartNs, b.EndNs)
	}
}

// Trace volume vastly exceeds sensor-record volume (paper: 501.5 MB vs
// 8.8 MB, a ~57x ratio; we require at least 5x on the mini workload).
func TestTraceVolumeComparison(t *testing.T) {
	app := apps.MustGet("CG", apps.Scale{Iters: 60, Work: 40})
	rep, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 16, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	traceBytes := rep.Tracer.Bytes()
	sensorBytes := rep.DataVolume()
	if sensorBytes <= 0 || traceBytes <= 0 {
		t.Fatalf("volumes: trace=%d sensor=%d", traceBytes, sensorBytes)
	}
	if traceBytes < 5*sensorBytes {
		t.Errorf("trace should dwarf sensor data: trace=%d sensor=%d", traceBytes, sensorBytes)
	}
}

func TestRunToRunVariance(t *testing.T) {
	// Fig. 1 shape: repeated submissions on a noisy machine vary in time;
	// a clean machine does not.
	app := apps.MustGet("FT", apps.Scale{Iters: 15, Work: 30})
	times := func(noisy bool) []float64 {
		var out []float64
		for run := 0; run < 6; run++ {
			cl := cluster.New(cluster.Config{Nodes: 4, RanksPerNode: 4, Seed: int64(run)})
			if noisy && run%2 == 1 {
				cl.AddNetWindow(0, 1<<62, 0.25)
			}
			rep, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 16, Cluster: cl, Uninstrumented: true})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rep.TotalSeconds())
		}
		return out
	}
	noisy := times(true)
	var min, max float64 = noisy[0], noisy[0]
	for _, v := range noisy {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max/min < 1.5 {
		t.Errorf("noisy runs should vary: %v", noisy)
	}
}

// The detection is on-line: the analysis server accumulates data while the
// job is still running, so a monitoring loop can poll it mid-run
// (paper §2: reports update periodically, no need to wait for the job).
func TestOnlineMonitoringMidRun(t *testing.T) {
	app := apps.MustGet("CG", apps.Scale{Iters: 150, Work: 150})
	rep, err := vsensor.Run(app.Source, vsensor.Options{Ranks: 8, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs, cursor, _, ok := rep.Server.Snapshot().RecordsWindow(0)
	if !ok || len(recs) == 0 || cursor != len(recs) {
		t.Fatalf("cursor API: %d records, cursor %d, ok %v", len(recs), cursor, ok)
	}
	if more, c2, _, ok := rep.Server.Snapshot().RecordsWindow(cursor); !ok || len(more) != 0 || c2 != cursor {
		t.Error("no new records expected after completion")
	}
	p := rep.Server.Progress()
	if p.Records != len(recs) || p.LatestSliceNs <= 0 {
		t.Errorf("progress = %+v", p)
	}
}

// Users can describe external functions (paper §3.5): an undescribed
// extern poisons its snippet; with a registered description the same call
// becomes a v-sensor.
func TestUserExternDescriptions(t *testing.T) {
	src := `
func main() {
    for (int i = 0; i < 20; i++) {
        for (int k = 0; k < 5; k++) {
            my_library_kernel(256);
        }
    }
}`
	undescribed, err := vsensor.Analyze(src, analysis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range undescribed.GlobalSensors {
		if s.Call != nil && s.Call.Callee == "my_library_kernel" {
			t.Fatal("undescribed extern must not be a sensor")
		}
	}

	ext := ir.DefaultExterns().Clone()
	ext.Register(ir.ExternDesc{
		Name: "my_library_kernel", Type: ir.Computation,
		Fixed: true, WorkArgs: []int{0},
	})
	prog, err := ir.BuildWithExterns(minic.MustParse(src), ext)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(prog)
	found := false
	for _, s := range res.GlobalSensors {
		if s.Call != nil && s.Call.Callee == "my_library_kernel" {
			found = true
		}
	}
	if !found {
		t.Fatal("described extern should be a global sensor")
	}
	// The full pipeline rejects running it (the VM has no implementation),
	// but analysis and instrumentation both work:
	ins := instrument.Apply(res, instrument.Config{})
	if len(ins.Sensors) == 0 {
		t.Error("described extern not instrumented")
	}
}

func TestEmitSourceViaFacade(t *testing.T) {
	src := `
func main() {
    for (int i = 0; i < 10; i++) {
        for (int k = 0; k < 5; k++) {
            flops(100);
        }
    }
}`
	out, err := vsensor.InstrumentSource(src, analysis.Config{}, instrument.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vs_tick(0);") || !strings.Contains(out, "vs_tock(0);") {
		t.Errorf("instrumented source:\n%s", out)
	}
}
