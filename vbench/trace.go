package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Profile sampling for the traced run: one mutex contention event in
// mutexFraction, and blocking events sampled about once per blockRateNs of
// blocked time.
const (
	mutexFraction = 5
	blockRateNs   = 10_000
)

// perLayerUnits lists the per-layer metrics in report order.
var perLayerUnits = [][2]string{
	// Set-up spans and identification counts.
	{"minic.parse_s", "s"}, {"ir.build_s", "s"}, {"analysis.identify_s", "s"},
	{"instrument.apply_s", "s"}, {"workload.build_s", "s"},
	{"analysis.snippets", "count"}, {"analysis.sensors", "count"}, {"analysis.sensor_ratio", "ratio"},
	// CPU time by module (see cpuByModule).
	{"vm.cpu_s", "s"}, {"cluster.cpu_s", "s"}, {"pmu.cpu_s", "s"}, {"mpisim.cpu_s", "s"},
	{"detect.cpu_s", "s"}, {"server.cpu_s", "s"}, {"transport.cpu_s", "s"}, {"netsrv.cpu_s", "s"},
	{"storage.cpu_s", "s"}, {"obs.cpu_s", "s"}, {"vis.cpu_s", "s"}, {"vsensor.cpu_s", "s"},
	{"runtime.cpu_s", "s"}, {"runtime.gc_cpu_s", "s"}, {"stdlib.cpu_s", "s"}, {"other.cpu_s", "s"},
	{"total.cpu_s", "s"},
	// Waiting, from the mutex and block profiles.
	{"server.lock_wait_s", "s"}, {"storage.lock_wait_s", "s"}, {"mpisim.lock_wait_s", "s"},
	{"netsrv.lock_wait_s", "s"}, {"mpisim.block_wait_s", "s"}, {"netsrv.block_wait_s", "s"},
	// Work counts and useful-over-attempted ratios read from the Report.
	{"vm.raw_records", "count"}, {"vm.virtual_ns", "ns"}, {"mpisim.net_virtual_s", "s"},
	{"detect.analyses", "count"}, {"detect.dropped", "count"}, {"detect.slices_per_record", "ratio"},
	{"server.frames", "count"}, {"server.records_per_frame", "ratio"}, {"server.dup_frames", "count"},
	{"server.epochs_closed", "count"}, {"server.verdict_s", "s"}, {"vis.render_s", "s"},
	{"transport.attempts_per_frame", "ratio"}, {"netsrv.reconnects", "count"},
	{"wal.entries", "count"}, {"wal.bytes", "B"}, {"wal.syncs", "count"}, {"wal.group_commits", "count"},
	{"wal.snapshots", "count"}, {"wal.bytes_per_record", "B"}, {"storage.disk_bytes", "B"},
	{"obs.polls", "count"}, {"obs.poll_ms_p50", "ms"}, {"obs.poll_ms_max", "ms"},
	{"server.snapshot_builds", "count"}, {"server.snapshot_hit_rate", "ratio"},
	{"trace.run_s", "s"}, {"trace.overhead_pct", "%"}, {"failed_frac", "ratio"},
}

// traceWorkload makes untraced reference runs for half the budget, then one
// traced run, checks that the traced run reproduces the reference outputs,
// and reports the per-layer metrics. Spans, profiles and the layer split go
// to out.
func traceWorkload(w *workload, seed int64, budget time.Duration, table expectTable, out string) (result, map[string]any) {
	chk := newChecker(table, w.Name, seed)
	runs, res, _ := runUntil(w, seed, time.Now().Add(budget/2), 1, 0, chk)
	var base []float64
	for _, r := range runs {
		if r.Err == nil && !r.Warm {
			base = append(base, r.RunS)
		}
	}
	sort.Float64s(base)

	tr := newTracer()
	var cpu, mu, blk bytes.Buffer
	runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRateNs)
	profErr := pprof.StartCPUProfile(&cpu)
	cpu0 := processCPU()
	r := w.run(seed, tr)
	cpuS := processCPU() - cpu0
	if profErr == nil {
		pprof.StopCPUProfile()
	}
	runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(0)
	_ = pprof.Lookup("mutex").WriteTo(&mu, 0)
	_ = pprof.Lookup("block").WriteTo(&blk, 0)
	res.Attempted++
	if !chk.check(r) {
		res.Failed++
	}
	res.Correct = res.Failed == 0

	m := map[string]float64{}
	m["minic.parse_s"] = tr.total("minic.parse")
	m["ir.build_s"] = tr.total("ir.build")
	m["analysis.identify_s"] = tr.total("analysis.identify")
	m["instrument.apply_s"] = tr.total("instrument.apply")
	m["workload.build_s"] = tr.total("workload.build")
	cpuMods, waits := map[string]float64{}, map[string]float64{}
	errs := []string{}
	if profErr != nil {
		errs = append(errs, "cpu profile: "+profErr.Error())
	}
	if p, err := parseProfile(cpu.Bytes()); err == nil {
		cpuMods = cpuByModule(p, cpuS)
	} else {
		errs = append(errs, err.Error())
	}
	for _, pb := range []*bytes.Buffer{&mu, &blk} {
		p, err := parseProfile(pb.Bytes())
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		kind := "lock_wait"
		if pb == &blk {
			kind = "block_wait"
		}
		for mod, s := range waitByModule(p) {
			waits[mod+"."+kind] = s
		}
	}
	for _, u := range perLayerUnits {
		if mod, ok := strings.CutSuffix(u[0], ".cpu_s"); ok {
			m[u[0]] = cpuMods[mod]
		} else if k, ok := strings.CutSuffix(u[0], "_s"); ok && strings.HasSuffix(k, "_wait") {
			m[u[0]] = waits[k]
		}
	}
	m["runtime.gc_cpu_s"] = cpuMods["runtime.gc"]
	if r.rep != nil {
		layerCounts(r, m)
	}
	m["trace.run_s"] = r.RunS
	if len(base) > 0 && r.Err == nil {
		mb := median(base)
		m["trace.overhead_pct"] = (r.RunS - mb) / mb * 100
	}
	m["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	for _, u := range perLayerUnits {
		res.Metrics[u[0]] = summarize([]float64{m[u[0]]}, u[1])
	}

	split := layerSplit(w.Name, cpuMods)
	dir := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d", w.Name, seed))
	if err := writeJSON(filepath.Join(dir, "spans.json"), tr.spans); err != nil {
		errs = append(errs, err.Error())
	}
	for name, b := range map[string][]byte{"cpu.pprof": cpu.Bytes(), "mutex.pprof": mu.Bytes(), "block.pprof": blk.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			errs = append(errs, err.Error())
		}
	}
	detail := map[string]any{
		"workload": w.Name, "runs": runsDetail(append(runs, r)),
		"untraced_run_s": base, "cpu_by_module_s": cpuMods, "wait_by_module_s": waits,
		"layer_split": split, "trace_dir": dir, "errors": errs,
	}
	r.rep = nil
	return res, detail
}

// layerCounts reads the work counts of every layer from the traced run's
// Report.
func layerCounts(r *runResult, m map[string]float64) {
	rep := r.rep
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if rep.Analysis != nil {
		m["analysis.snippets"] = float64(len(rep.Analysis.Snippets))
		m["analysis.sensors"] = float64(len(rep.Analysis.Sensors))
		m["analysis.sensor_ratio"] = ratio(m["analysis.sensors"], m["analysis.snippets"])
	}
	var net int64
	for _, rs := range rep.Result.Ranks {
		net += rs.NetNs
	}
	m["vm.raw_records"] = float64(r.Raw)
	m["vm.virtual_ns"] = float64(r.TotalNs)
	m["mpisim.net_virtual_s"] = float64(net) / 1e9
	for _, d := range rep.Detectors {
		if d != nil {
			m["detect.analyses"] += float64(d.Analyses())
			m["detect.dropped"] += float64(d.Dropped())
		}
	}
	cov := rep.Coverage()
	m["detect.slices_per_record"] = ratio(float64(cov.IngestedRecords), float64(r.Raw))
	m["server.frames"] = float64(cov.IngestedFrames)
	m["server.records_per_frame"] = ratio(float64(cov.IngestedRecords), float64(cov.IngestedFrames))
	m["server.dup_frames"] = float64(cov.DupFrames)
	m["server.epochs_closed"] = float64(rep.Server.EpochStats().Closed)
	m["server.verdict_s"] = r.VerdictS
	m["vis.render_s"] = r.RenderS
	if rep.Link != nil {
		m["transport.attempts_per_frame"] = ratio(float64(rep.Link.Attempts()), float64(cov.IngestedFrames))
	}
	if rep.Resilient != nil {
		m["netsrv.reconnects"] = float64(rep.Resilient.Stats().Reconnects)
	}
	ds := rep.Durability()
	m["wal.entries"] = float64(ds.WALEntries)
	m["wal.bytes"] = float64(ds.WALBytes)
	m["wal.syncs"] = float64(ds.Syncs)
	m["wal.group_commits"] = float64(ds.GroupCommits)
	m["wal.snapshots"] = float64(ds.Snapshots)
	m["wal.bytes_per_record"] = ratio(float64(ds.WALBytes), float64(cov.IngestedRecords))
	m["storage.disk_bytes"] = float64(ds.DiskBytes)
	if len(r.PollMs) > 0 {
		s := append([]float64(nil), r.PollMs...)
		sort.Float64s(s)
		m["obs.polls"] = float64(len(s))
		m["obs.poll_ms_p50"] = median(s)
		m["obs.poll_ms_max"] = s[len(s)-1]
	}
	ss := rep.Server.SnapshotStats()
	m["server.snapshot_builds"] = float64(ss.Builds)
	m["server.snapshot_hit_rate"] = ss.HitRate()
}

// layerSplit compares the traced run's CPU split with the prediction made
// for the workload before the benchmark existed, and says met or miss.
func layerSplit(workload string, cpu map[string]float64) map[string]any {
	share := func(mods ...string) float64 {
		if cpu["total"] == 0 {
			return 0
		}
		var s float64
		for _, m := range mods {
			s += cpu[m]
		}
		return s / cpu["total"]
	}
	largest := func(exclude ...string) (string, float64) {
		skip := map[string]bool{"total": true, "runtime.gc": true, "runtime": true, "stdlib": true, "other": true}
		for _, e := range exclude {
			skip[e] = true
		}
		best, bv := "", -1.0
		for m, v := range cpu {
			if !skip[m] && v > bv {
				best, bv = m, v
			}
		}
		return best, bv
	}
	out := map[string]any{}
	switch workload {
	case "cg4096-direct":
		top, _ := largest()
		out["prediction"] = "vm is the largest layer"
		out["largest_layer"] = top
		out["vm_share"] = share("vm")
		out["met"] = top == "vm"
	case "dense-direct":
		top, v := largest("vm", "detect", "server")
		out["prediction"] = "detect + server are the largest non-vm share"
		out["detect_server_share"] = share("detect", "server")
		out["largest_other_layer"] = top
		out["largest_other_share"] = share(top)
		out["met"] = cpu["detect"]+cpu["server"] > v
	case "dense-netwal":
		s := share("server", "storage", "runtime.gc")
		out["prediction"] = "checkpoint (server), storage and GC take over half the CPU"
		out["server_storage_gc_share"] = s
		out["met"] = s > 0.5
	}
	return out
}

// processCPU is the user plus system CPU time this process has used, in
// seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
