package load

import (
	"fmt"
	"testing"
)

// BenchmarkLoadDurable is the durability-throughput comparison behind the
// group-commit WAL: the identical pre-encoded workload driven with a commit
// per outcome (per-op), with group commit, and with coalescing at three
// cluster sizes.
// One benchmark op is one complete run (every frame, duplicate, and
// heartbeat ingested, final group flushed). The reported metrics are what
// the comparison is about — records/s (durable ingest throughput),
// wal_B/s (journal write rate), syncs/s (disk sync pressure), and p95_ns
// (hot-path Receive latency). scripts/check.sh renders them to
// BENCH_load.json and gates group-commit's speedup over per-op at 4096
// ranks.
func BenchmarkLoadDurable(b *testing.B) {
	for _, ranks := range []int{64, 512, 4096} {
		cfg := Defaults(ranks)
		sched := BuildSchedule(cfg)
		for _, variant := range Variants() {
			b.Run(fmt.Sprintf("variant=%s/ranks=%d", variant, ranks), func(b *testing.B) {
				var last Result
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := RunVariant(variant, cfg, sched)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(sched.Records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
				b.ReportMetric(float64(last.WALBytes)*float64(b.N)/b.Elapsed().Seconds(), "wal_B/s")
				b.ReportMetric(float64(last.Syncs)*float64(b.N)/b.Elapsed().Seconds(), "syncs/s")
				b.ReportMetric(float64(last.P95Ns), "p95_ns")
			})
		}
	}
}
