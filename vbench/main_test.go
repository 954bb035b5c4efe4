package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmokeEmitsEveryMetric runs every workload at smoke size through the
// command line, untraced and traced, and checks that each end-to-end and
// per-layer metric is printed and every output check passes.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	out := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"--workload", "all", "--smoke", "--seed", "3", "--seconds", "1",
			"--trace", trace, "--out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		res := lastResult(t, stdout.String())
		if !res.Correct || res.Failed != 0 || res.Attempted < len(workloadNames) {
			t.Fatalf("trace %s: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, stdout.String())
		}
		names := e2eUnits
		if trace == "1" {
			names = perLayerUnits
		}
		for _, w := range workloadNames {
			for _, u := range names {
				m, ok := res.Metrics[w+"/"+u[0]]
				if !ok || m.Unit != u[1] {
					t.Errorf("trace %s: %s/%s missing or wrong unit: %+v", trace, w, u[0], m)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(out, "trace", "dense-netwal-seed3", "spans.json")); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}

// TestWrongExpectedValueFails feeds the harness a recorded virtual time that
// is off by one nanosecond and checks that every run fails its check.
func TestWrongExpectedValueFails(t *testing.T) {
	w, err := newWorkload("dense-direct", smokeSizing)
	if err != nil {
		t.Fatal(err)
	}
	r := w.run(5, nil)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	good := expectTable{w.Name: {"5": {TotalNs: r.TotalNs, IngestedRecords: r.Ingested}}}
	res, _ := measureWorkload(w, 5, time.Second, good)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("recorded values: correct=%v failed=%d", res.Correct, res.Failed)
	}
	bad := expectTable{w.Name: {"5": {TotalNs: r.TotalNs + 1, IngestedRecords: r.Ingested}}}
	res, _ = measureWorkload(w, 5, time.Second, bad)
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("wrong recorded value: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the metrics the
// harness prints in step.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json next to the harness:", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, harness has %v", names, workloadNames)
	}
	same := func(kind string, file []struct{ Name, Unit string }, harness [][2]string) {
		if len(file) != len(harness) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(file), len(harness))
			return
		}
		for i, m := range file {
			if m.Name != harness[i][0] || m.Unit != harness[i][1] {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, m.Name, m.Unit, harness[i][0], harness[i][1])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, e2eUnits)
	same("per_layer", bench.PerLayer, perLayerUnits)
}

func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout)
	}
	return res
}

// TestRecordedValuesAgreeAcrossPaths: the networked durable path charges no
// virtual time, so both dense workloads must have recorded the same virtual
// time and record count at every seed.
func TestRecordedValuesAgreeAcrossPaths(t *testing.T) {
	table, err := loadExpectations(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	direct, net := table["dense-direct"], table["dense-netwal"]
	if len(direct) == 0 || len(direct) != len(net) {
		t.Fatalf("recorded seeds: %d direct, %d netwal", len(direct), len(net))
	}
	for seed, want := range direct {
		if net[seed] != want {
			t.Errorf("seed %s: direct %+v, netwal %+v", seed, want, net[seed])
		}
	}
}
