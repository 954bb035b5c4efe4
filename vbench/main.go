// Command vbench is the end-to-end benchmark of the vsensor pipeline.
//
// It runs one workload through the public pipeline — compile, identify,
// instrument, vsensor.RunProgram on thousands of simulated ranks, the final
// InterProcessReport verdict and the report render — for a fixed wall-time
// budget, checks every run's outputs, and prints each metric by name with
// its unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash vbench/run.sh --workload dense-direct --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 makes untimed
// reference runs and then one traced run (CPU, mutex and block profiles
// grouped by package, spans around the harness's calls into each layer,
// counters read from the Report) and reports the per-layer metrics.
// --workload all runs every workload in turn. --record a-b prints the
// recorded-values table (expected.json) for seeds a..b.
//
// run.sh builds it inside the checkout; run it from the repository root,
// where results, spans and profiles land under .bench_build/vbench. The
// smoke tests (go test in this directory) run every workload at a size of
// a few ranks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
	Q1    float64 `json:"-"`
	Q3    float64 `json:"-"`
}

// result is the harness's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits lists the end-to-end metrics in report order.
var e2eUnits = [][2]string{
	{"run_s", "s"},
	{"records_per_s", "records/s"},
	{"first_verdict_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"verdict_precision", "ratio"},
	{"verdict_recall", "ratio"},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed: cluster jitter, PMU, run seed and planted node derive from it")
	seconds := fs.Int("seconds", 20, "wall-time budget of the measurement, per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := fs.String("record", "", "print the recorded-values table for seeds a-b instead of benchmarking")
	smoke := fs.Bool("smoke", false, "run the workloads at smoke size (seconds, for trying the harness)")
	out := fs.String("out", filepath.Join(".bench_build", "vbench"), "directory for result files, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "vbench: need --workload, --seconds >= 1 and --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	table, err := loadExpectations(expectedJSON)
	if err != nil {
		fmt.Fprintln(stderr, "vbench:", err)
		return 2
	}
	sz := fullSizing
	if *smoke {
		// The recorded values belong to the full sizes.
		sz, table = smokeSizing, expectTable{}
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	var ws []*workload
	for _, n := range names {
		w, err := newWorkload(n, sz)
		if err != nil {
			fmt.Fprintln(stderr, "vbench:", err)
			return 2
		}
		ws = append(ws, w)
	}
	if *record != "" {
		return recordTable(ws, *record, stdout, stderr)
	}

	meta := hostMeta(*seed, *trace)
	metaLine, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(stdout, string(metaLine))
	final := result{Correct: true, Metrics: map[string]metric{}}
	budget := time.Duration(*seconds) * time.Second
	for _, w := range ws {
		var res result
		var detail map[string]any
		if *trace == 1 {
			res, detail = traceWorkload(w, *seed, budget, table, *out)
		} else {
			res, detail = measureWorkload(w, *seed, budget, table)
		}
		printTable(stdout, w.Name, res)
		detail["meta"] = meta
		detail["result"] = res
		if err := writeJSON(filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, *seed, *trace)), detail); err != nil {
			fmt.Fprintln(stderr, "vbench: writing results:", err)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(ws) > 1 {
				k = w.Name + "/" + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "vbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measureWorkload makes the timed, untraced runs of one workload: repeated
// set-ups, then full pipeline runs until the budget is spent, each checked.
func measureWorkload(w *workload, seed int64, budget time.Duration, table expectTable) (result, map[string]any) {
	chk := newChecker(table, w.Name, seed)
	runs, res, setups := runUntil(w, seed, time.Now().Add(budget), minRuns, setupReps, chk)
	s := map[string][]float64{}
	for _, r := range runs {
		if r.Warm {
			continue
		}
		s["setup_s"] = append(s["setup_s"], r.SetupS)
		if r.Err != nil {
			continue
		}
		s["run_s"] = append(s["run_s"], r.RunS)
		s["records_per_s"] = append(s["records_per_s"], r.RecordsPerS)
		s["first_verdict_s"] = append(s["first_verdict_s"], r.FirstVerdictS)
		s["alloc_mb"] = append(s["alloc_mb"], r.AllocMB)
		s["verdict_precision"] = append(s["verdict_precision"], r.Precision)
		s["verdict_recall"] = append(s["verdict_recall"], r.Recall)
	}
	s["setup_s"] = append(s["setup_s"], setups...)
	for _, u := range e2eUnits {
		res.Metrics[u[0]] = summarize(s[u[0]], u[1])
	}
	return res, map[string]any{"workload": w.Name, "runs": runsDetail(runs), "samples": s}
}

// minRuns is the least number of pipeline runs in a measurement, whatever
// the budget, so every median has at least this many samples.
const minRuns = 3

// setupReps is how many extra set-ups are timed before each run. One set-up
// takes well under a millisecond, so its median needs many samples, and
// spreading them over the measurement keeps one slow moment of the host
// from setting it.
const setupReps = 40

// runUntil runs the pipeline once to warm up and then at least min more
// times, and on while the next run is expected to end before deadline,
// checking each run. The warm-up run is marked Warm: the first run of a
// process pays for growing the heap and the goroutine stacks and for the
// first loopback listener, which later runs do not, so it is checked but
// not sampled. Before each later run it times reps set-ups, returned as
// the third value.
func runUntil(w *workload, seed int64, deadline time.Time, min, reps int, chk *checker) ([]*runResult, result, []float64) {
	res := result{Metrics: map[string]metric{}}
	var runs []*runResult
	var setups []float64
	var last time.Duration
	for len(runs) < 1+min || time.Now().Add(last).Before(deadline) {
		t0 := time.Now()
		warm := len(runs) == 0
		runtime.GC() // the previous run's garbage is not set-up's cost
		for i := 0; i < reps && !warm; i++ {
			s0 := time.Now()
			if _, err := w.setup(seed, nil); err != nil {
				break // the run below reports the error
			}
			setups = append(setups, time.Since(s0).Seconds())
		}
		r := w.run(seed, nil)
		r.Warm = warm
		r.rep = nil // let the report's memory go before the next run
		last = time.Since(t0)
		res.Attempted++
		if !chk.check(r) {
			res.Failed++
		}
		runs = append(runs, r)
	}
	res.Correct = res.Failed == 0
	return runs, res, setups
}

func runsDetail(runs []*runResult) []map[string]any {
	var out []map[string]any
	for _, r := range runs {
		d := map[string]any{
			"setup_s": r.SetupS, "run_s": r.RunS, "first_verdict_s": r.FirstVerdictS,
			"polled_verdict": r.PolledVerdict, "alloc_mb": r.AllocMB, "records_per_s": r.RecordsPerS,
			"verdict_s": r.VerdictS, "render_s": r.RenderS,
			"precision": r.Precision, "recall": r.Recall,
			"total_ns": r.TotalNs, "ingested_records": r.Ingested, "raw_records": r.Raw,
			"outliers": r.Outliers, "outlier_hash": strconv.FormatUint(r.OutlierHash, 16),
			"planted_node": r.node, "polls": len(r.PollMs), "warm_up": r.Warm,
		}
		if r.Err != nil {
			d["error"] = r.Err.Error()
		}
		out = append(out, d)
	}
	return out
}

// summarize reports the median of samples with its quartiles and count.
func summarize(samples []float64, unit string) metric {
	m := metric{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return m
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m.Value = median(s)
	m.Q1, m.Q3 = m.Value, m.Value
	if len(s) >= 2 {
		m.Q1, m.Q3 = quartile(s, 1), quartile(s, 3)
	}
	return m
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartile is Python's statistics.quantiles(n=4) (exclusive method) cut i.
func quartile(sorted []float64, i int) float64 {
	ld := len(sorted)
	m := ld + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

func printTable(w io.Writer, workload string, res result) {
	fmt.Fprintf(w, "# %s: %d runs attempted, %d failed\n", workload, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %-28s %-10s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "# %-28s %-10s %14.6g %14.6g %14.6g %4d\n", k, m.Unit, m.Value, m.Q1, m.Q3, m.N)
	}
}

// hostMeta is recorded with every result.
func hostMeta(seed int64, trace int) map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"seed":       seed,
		"trace":      trace,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git when the working directory
// is a git checkout, and VBENCH_COMMIT otherwise.
func commit() string {
	if c := os.Getenv("VBENCH_COMMIT"); c != "" {
		return c
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// recordTable runs each workload once per seed in spec ("a-b") and prints
// the recorded-values table.
func recordTable(ws []*workload, spec string, stdout, stderr io.Writer) int {
	a, b, ok := strings.Cut(spec, "-")
	lo, err1 := strconv.ParseInt(a, 10, 64)
	hi, err2 := strconv.ParseInt(b, 10, 64)
	if !ok || err1 != nil || err2 != nil || hi < lo {
		fmt.Fprintf(stderr, "vbench: bad --record %q, want a-b\n", spec)
		return 2
	}
	t := expectTable{}
	for _, w := range ws {
		t[w.Name] = map[string]expectation{}
		for s := lo; s <= hi; s++ {
			r := w.run(s, nil)
			if r.Err != nil {
				fmt.Fprintf(stderr, "vbench: %s seed %d: %v\n", w.Name, s, r.Err)
				return 1
			}
			t[w.Name][strconv.FormatInt(s, 10)] = expectation{TotalNs: r.TotalNs, IngestedRecords: r.Ingested}
			fmt.Fprintf(stderr, "%s seed %d: %d ns, %d records, %.2fs\n", w.Name, s, r.TotalNs, r.Ingested, r.RunS)
		}
	}
	b2, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "vbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b2))
	return 0
}
