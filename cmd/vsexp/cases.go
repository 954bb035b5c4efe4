package main

import (
	"fmt"
	"io"
	"time"

	vsensor "vsensor"
	"vsensor/internal/apps"
	"vsensor/internal/cluster"
	"vsensor/internal/detect"
	"vsensor/internal/instrument"
	"vsensor/internal/ir"
)

// runFig18: the noise-injection study (Figs. 18, 19, 20): mpiP-style
// profiles before/after injection, and the vSensor matrix that localizes
// the injected blocks.
func runFig18(w io.Writer, cfg suiteConfig) {
	ranks := cfg.ranks
	if ranks == 0 {
		ranks = 128
	}
	rpn := 8
	nodes := ranks / rpn
	first, second, width := noiseBlocks(nodes)
	if width < 1 {
		fmt.Fprintf(w, "fig18 needs at least %d ranks (6 nodes of %d) for its two noise blocks; have %d\n",
			6*rpn, rpn, ranks)
		return
	}
	app := apps.MustGet("CG", apps.Scale{Iters: 200, Work: 150})
	mk := func() *cluster.Cluster {
		return cluster.New(cluster.Config{Nodes: nodes, RanksPerNode: rpn})
	}

	clean, err := vsensor.Run(app.Source, vsensor.Options{Ranks: ranks, Cluster: mk(), Profile: true})
	if err != nil {
		fmt.Fprintln(w, "run failed:", err)
		return
	}
	total := clean.Result.TotalNs

	noisy := mk()
	for node := first; node < first+width; node++ {
		noisy.AddCPUNoise(node, total/4, total/4+total/6, 0.3)
	}
	for node := second; node < second+width; node++ {
		noisy.AddCPUNoise(node, total*2/3, total*2/3+total/6, 0.3)
	}
	rep, err := vsensor.Run(app.Source, vsensor.Options{Ranks: ranks, Cluster: noisy, Profile: true})
	if err != nil {
		fmt.Fprintln(w, "run failed:", err)
		return
	}

	fmt.Fprintln(w, "| Run | Mean comp time | Mean MPI time | Total |")
	fmt.Fprintln(w, "|---|---|---|---|")
	fmt.Fprintf(w, "| normal (Fig. 18) | %.3f ms | %.3f ms | %.3f ms |\n",
		clean.Profiler.MeanCompSeconds()*1e3, clean.Profiler.MeanMPISeconds()*1e3, clean.TotalSeconds()*1e3)
	fmt.Fprintf(w, "| noise-injected (Fig. 19) | %.3f ms | %.3f ms | %.3f ms |\n",
		rep.Profiler.MeanCompSeconds()*1e3, rep.Profiler.MeanMPISeconds()*1e3, rep.TotalSeconds()*1e3)
	fmt.Fprintln(w, "\nThe profiler shows times growing but not where or when the noise was")
	fmt.Fprintln(w, "injected (and waiting inflates MPI time, pointing at the wrong component).")

	m := rep.Matrices(2 * time.Millisecond)[ir.Computation]
	blocks := m.LowBlocks(0.8, 0.02)
	fmt.Fprintf(w, "\nvSensor (Fig. 20) localizes %d variance blocks:\n\n", len(blocks))
	for _, b := range blocks {
		fmt.Fprintf(w, "- ranks %d-%d during %.1f..%.1f ms (mean perf %.2f); injected: ranks %d-%d and %d-%d\n",
			b.FirstRank, b.LastRank, float64(b.StartNs)/1e6, float64(b.EndNs)/1e6, b.MeanPerf,
			first*rpn, (first+width)*rpn-1, second*rpn, (second+width)*rpn-1)
	}
	fmt.Fprintln(w, "\n```")
	fmt.Fprint(w, m.ASCII(32, 72))
	fmt.Fprintln(w, "```")
}

// noiseBlocks places fig18's two noise blocks on a machine of the given
// node count: each 3/16 of the nodes wide, starting at 3/16 and 9/16 of
// the machine (nodes 3-5 and 9-11 at the default 16 nodes). A width of 0
// means the machine is too small to hold them.
func noiseBlocks(nodes int) (first, second, width int) {
	return nodes * 3 / 16, nodes * 9 / 16, nodes * 3 / 16
}

// runFig21: one node's memory at 55% slows CG; vSensor shows a persistent
// low band at that node's ranks, and removing the node recovers ~20%.
func runFig21(w io.Writer, cfg suiteConfig) {
	ranks := cfg.ranks
	if ranks == 0 {
		ranks = 256
	}
	rpn := 8
	badNode := (ranks / rpn) / 2
	app := apps.MustGet("CG", apps.Scale{Iters: 100, Work: 100})

	run := func(bad bool) (*vsensor.Report, error) {
		cl := cluster.New(cluster.Config{Nodes: ranks / rpn, RanksPerNode: rpn})
		if bad {
			cl.SetNodeMemSpeed(badNode, 0.55)
		}
		return vsensor.Run(app.Source, vsensor.Options{Ranks: ranks, Cluster: cl})
	}
	bad, err := run(true)
	if err != nil {
		fmt.Fprintln(w, "run failed:", err)
		return
	}
	good, err := run(false)
	if err != nil {
		fmt.Fprintln(w, "run failed:", err)
		return
	}
	m := bad.Matrices(2 * time.Millisecond)[ir.Computation]
	fmt.Fprintf(w, "CG, %d ranks; node %d memory at 55%% (hosting ranks %d-%d).\n\n",
		ranks, badNode, badNode*rpn, badNode*rpn+rpn-1)
	for _, b := range m.LowRankBands(0.85, 0.5) {
		fmt.Fprintf(w, "- detected persistent low band: ranks %d-%d (mean perf %.2f) -> node %d\n",
			b.First, b.Last, b.MeanPerf, b.First/rpn)
	}
	imp := 1 - good.TotalSeconds()/bad.TotalSeconds()
	fmt.Fprintf(w, "\n| Run | Time |\n|---|---|\n| with bad node | %.3f ms |\n| without | %.3f ms |\n",
		bad.TotalSeconds()*1e3, good.TotalSeconds()*1e3)
	fmt.Fprintf(w, "\nImprovement after removing the node: %.0f%% (paper: 21%%, 80.04s -> 66.05s).\n", imp*100)
}

// runFig22: mid-run network degradation slows FT's all-to-all; the network
// matrix shows the window, computation stays clean.
func runFig22(w io.Writer, cfg suiteConfig) {
	ranks := cfg.ranks
	if ranks == 0 {
		ranks = 1024
	}
	app := apps.MustGet("FT", apps.Scale{Iters: 50, Work: 40})
	mk := func() *cluster.Cluster {
		return cluster.New(cluster.Config{Nodes: ranks / 16, RanksPerNode: 16})
	}
	clean, err := vsensor.Run(app.Source, vsensor.Options{Ranks: ranks, Cluster: mk()})
	if err != nil {
		fmt.Fprintln(w, "run failed:", err)
		return
	}
	total := clean.Result.TotalNs
	cl := mk()
	// Congestion sets in at 20% of the run and persists until the job
	// finishes, like the paper's 16s..67s episode in a stretched 78s run.
	cl.AddNetWindow(total/5, int64(1)<<62, 0.25)
	congested, err := vsensor.Run(app.Source, vsensor.Options{Ranks: ranks, Cluster: cl})
	if err != nil {
		fmt.Fprintln(w, "run failed:", err)
		return
	}
	slow := congested.TotalSeconds() / clean.TotalSeconds()
	fmt.Fprintf(w, "FT, %d ranks. Normal %.3f ms, congested %.3f ms — **%.2fx slower**\n",
		ranks, clean.TotalSeconds()*1e3, congested.TotalSeconds()*1e3, slow)
	fmt.Fprintf(w, "(paper: 23.31s vs 78.66s, 3.37x).\n\n")
	m := congested.Matrices(2 * time.Millisecond)[ir.Network]
	for _, win := range m.LowTimeWindows(0.7, 0.8) {
		fmt.Fprintf(w, "- network degradation window: %.1f..%.1f ms (mean perf %.2f)\n",
			float64(win.StartNs)/1e6, float64(win.EndNs)/1e6, win.MeanPerf)
	}
	if mc := congested.Matrices(2 * time.Millisecond)[ir.Computation]; mc != nil {
		fmt.Fprintf(w, "- computation matrix windows in the same period: %d (the network is the root cause)\n",
			len(mc.LowTimeWindows(0.7, 0.8)))
	}
}

// runVolume: tracer vs vSensor data volumes on the same run.
func runVolume(w io.Writer, cfg suiteConfig) {
	ranks := cfg.ranks
	if ranks == 0 {
		ranks = 128
	}
	app := apps.MustGet("CG", apps.Scale{Iters: 300, Work: 120})
	cl := cluster.New(cluster.Config{Nodes: ranks / 8, RanksPerNode: 8})
	// Virtual time is compressed relative to the paper's 140s real run; a
	// 10ms slice keeps the slice-to-run-length proportion comparable.
	rep, err := vsensor.Run(app.Source, vsensor.Options{
		Ranks: ranks, Cluster: cl, Trace: true,
		Detect: detect.Config{SliceNs: 10_000_000},
	})
	if err != nil {
		fmt.Fprintln(w, "run failed:", err)
		return
	}
	tb, sb := rep.Tracer.Bytes(), rep.DataVolume()
	secs := rep.TotalSeconds()
	fmt.Fprintf(w, "| Tool | Data volume | Rate per process |\n|---|---|---|\n")
	fmt.Fprintf(w, "| ITAC-style tracer | %.2f MB | %.1f KB/s |\n",
		float64(tb)/1e6, float64(tb)/1e3/secs/float64(ranks))
	fmt.Fprintf(w, "| vSensor | %.3f MB | %.2f KB/s |\n",
		float64(sb)/1e6, float64(sb)/1e3/secs/float64(ranks))
	fmt.Fprintf(w, "\nRatio: %.1fx (paper: 501.5 MB vs 8.8 MB = 57x on a 140 s, 128-process run).\n",
		float64(tb)/float64(sb))
}

// runOverhead: instrumentation overhead versus rank count; the paper's
// flagship claim is <4% at 16,384 processes.
func runOverhead(w io.Writer, cfg suiteConfig) {
	rankCounts := []int{4, 16, 64, 256, 1024}
	if cfg.big {
		rankCounts = append(rankCounts, 4096, 16384)
	}
	fmt.Fprintln(w, "| Ranks | Baseline (ms) | Instrumented (ms) | Overhead |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, ranks := range rankCounts {
		// Scale the per-rank work down at very large rank counts so the
		// flagship point stays laptop-tractable; overhead is a ratio, so
		// the comparison remains valid.
		scale := apps.Scale{Iters: 25, Work: 60}
		if ranks >= 4096 {
			scale = apps.Scale{Iters: 8, Work: 25}
		}
		app := apps.MustGet("SP", scale)
		nodes := ranks / 8
		if nodes < 1 {
			nodes = 1
		}
		mk := func() *cluster.Cluster {
			return cluster.New(cluster.Config{Nodes: nodes, RanksPerNode: (ranks + nodes - 1) / nodes})
		}
		base, err := vsensor.Run(app.Source, vsensor.Options{Ranks: ranks, Cluster: mk(), Uninstrumented: true})
		if err != nil {
			fmt.Fprintln(w, "run failed:", err)
			return
		}
		ins, err := vsensor.Run(app.Source, vsensor.Options{Ranks: ranks, Cluster: mk()})
		if err != nil {
			fmt.Fprintln(w, "run failed:", err)
			return
		}
		ov := float64(ins.Result.TotalNs-base.Result.TotalNs) / float64(base.Result.TotalNs)
		fmt.Fprintf(w, "| %d | %.3f | %.3f | %.2f%% |\n",
			ranks, base.TotalSeconds()*1e3, ins.TotalSeconds()*1e3, ov*100)
	}
	fmt.Fprintln(w, "\nPaper: overhead < 4% with up to 16,384 processes.")
}

// runAblations: sweeps over the design choices of §4/§5.
func runAblations(w io.Writer, cfg suiteConfig) {
	app := apps.MustGet("CG", apps.Scale{Iters: 60, Work: 60})
	const ranks = 16

	// A1: max-depth sweep — deeper instrumentation, more sensors, more
	// overhead.
	fmt.Fprintln(w, "### A1 — max-depth sweep (granularity rule)")
	fmt.Fprintln(w, "\n| MaxDepth | Sensors | Records | Overhead |")
	fmt.Fprintln(w, "|---|---|---|---|")
	base, err := vsensor.Run(app.Source, vsensor.Options{Ranks: ranks, Uninstrumented: true})
	if err != nil {
		fmt.Fprintln(w, "run failed:", err)
		return
	}
	for _, depth := range []int{1, 2, 3, 4} {
		rep, err := vsensor.Run(app.Source, vsensor.Options{
			Ranks: ranks, CollectRecords: true,
			Instrument: instrument.Config{MaxDepth: depth, KeepNested: true},
		})
		if err != nil {
			fmt.Fprintln(w, "run failed:", err)
			return
		}
		ov := float64(rep.Result.TotalNs-base.Result.TotalNs) / float64(base.Result.TotalNs)
		fmt.Fprintf(w, "| %d | %d | %d | %.2f%% |\n", depth, len(rep.Instrumented.Sensors), len(rep.Records), ov*100)
	}

	// A3: nested-sensor rule.
	fmt.Fprintln(w, "\n### A3 — nested-sensor exclusion")
	fmt.Fprintln(w, "\n| Rule | Sensors | Records | Overhead |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, keep := range []bool{false, true} {
		rep, err := vsensor.Run(app.Source, vsensor.Options{
			Ranks: ranks, CollectRecords: true,
			Instrument: instrument.Config{KeepNested: keep},
		})
		if err != nil {
			fmt.Fprintln(w, "run failed:", err)
			return
		}
		ov := float64(rep.Result.TotalNs-base.Result.TotalNs) / float64(base.Result.TotalNs)
		name := "outermost only (paper)"
		if keep {
			name = "keep nested"
		}
		fmt.Fprintf(w, "| %s | %d | %d | %.2f%% |\n", name, len(rep.Instrumented.Sensors), len(rep.Records), ov*100)
	}

	// A2: smoothing-slice sweep — small slices admit OS noise as false
	// positives.
	fmt.Fprintln(w, "\n### A2 — smoothing slice sweep (false positives from OS noise)")
	fmt.Fprintln(w, "\n| Slice | Variance events on a clean-but-noisy-OS cluster |")
	fmt.Fprintln(w, "|---|---|")
	for _, sliceNs := range []int64{10_000, 100_000, 1_000_000, 10_000_000} {
		cl := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 8})
		cl.SetOSNoise(100_000, 10_000, 0.3)
		rep, err := vsensor.Run(app.Source, vsensor.Options{
			Ranks: ranks, Cluster: cl,
			Detect: detect.Config{SliceNs: sliceNs},
		})
		if err != nil {
			fmt.Fprintln(w, "run failed:", err)
			return
		}
		fmt.Fprintf(w, "| %dµs | %d |\n", sliceNs/1000, len(rep.Events()))
	}

	// A4: batching.
	fmt.Fprintln(w, "\n### A4 — analysis-server batching")
	fmt.Fprintln(w, "\n| Batch | Messages | Bytes |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, batch := range []int{1, 64} {
		rep, err := vsensor.Run(app.Source, vsensor.Options{Ranks: ranks, BatchSize: batch})
		if err != nil {
			fmt.Fprintln(w, "run failed:", err)
			return
		}
		fmt.Fprintf(w, "| %d | %d | %d |\n", batch, rep.Server.Messages(), rep.Server.BytesReceived())
	}

	// A5: minimum detectable disturbance duration vs smoothing slice —
	// the smoothing that suppresses OS noise also hides disturbances much
	// shorter than the slice, quantifying the paper's granularity
	// trade-off (§5.1: "vSensor focuses on more durable ... variance").
	fmt.Fprintln(w, "\n### A5 — detectability of short disturbances vs smoothing slice")
	fmt.Fprintln(w, "\n| Disturbance | slice 100µs | slice 1000µs | slice 10000µs |")
	fmt.Fprintln(w, "|---|---|---|---|")
	base2, err := vsensor.Run(app.Source, vsensor.Options{Ranks: ranks, Uninstrumented: true})
	if err != nil {
		fmt.Fprintln(w, "run failed:", err)
		return
	}
	total := base2.Result.TotalNs
	for _, durNs := range []int64{50_000, 500_000, 5_000_000} {
		fmt.Fprintf(w, "| %dµs |", durNs/1000)
		for _, sliceNs := range []int64{100_000, 1_000_000, 10_000_000} {
			cl := cluster.New(cluster.Config{Nodes: 2, RanksPerNode: 8})
			cl.AddCPUNoise(0, total/2, total/2+durNs, 0.1)
			rep, err := vsensor.Run(app.Source, vsensor.Options{
				Ranks: ranks, Cluster: cl,
				Detect: detect.Config{SliceNs: sliceNs},
			})
			if err != nil {
				fmt.Fprintln(w, "run failed:", err)
				return
			}
			detected := "miss"
			if len(rep.Events()) > 0 {
				detected = "hit"
			}
			fmt.Fprintf(w, " %s |", detected)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nLonger slices suppress noise but miss disturbances shorter than the slice.")
}
