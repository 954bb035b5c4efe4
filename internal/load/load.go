// Package load is a closed-loop load harness for the durable analysis
// server: it pre-encodes a deterministic per-rank delivery schedule —
// frames interleaved with the heartbeat and duplicate chatter a real
// deployment produces — then drives it through Server.Receive from a pool
// of workers that each own a partition of the ranks (per-rank frame order
// is a protocol invariant, so ops never cross ranks between workers).
// Every Receive call is timed, so the harness reports both throughput
// (records/s, WAL bytes/s, syncs/s) and the hot-path latency distribution
// (p50/p95/p99) for a given durability configuration.
//
// Its purpose is the durability-throughput comparison behind the
// group-commit WAL: the same workload run with a commit per outcome
// (per-op, FlushEvery 1), with group commit, and with coalescing
// (VariantDurability) makes the cost of "one sync per outcome" and the win
// from batching directly measurable.
// scripts/check.sh renders the comparison to BENCH_load.json and gates the
// group-commit speedup.
package load

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/server"
	"vsensor/internal/storage"
)

// Config shapes one load run. The zero value is invalid; use Defaults or
// fill every field. The schedule it generates is deterministic: the same
// config always produces byte-identical ops, so two variants of the same
// workload differ only in the server's durability configuration.
type Config struct {
	// Ranks is how many sending processes the workload models.
	Ranks int

	// FramesPerRank is how many record frames each rank delivers.
	FramesPerRank int

	// RecordsPerFrame is the batch size inside each frame.
	RecordsPerFrame int

	// HeartbeatsPerFrame interleaves this many liveness heartbeats after
	// every frame — the steady-state chatter that dominates a mostly-idle
	// deployment and that the coalescing encoder collapses.
	HeartbeatsPerFrame int

	// DupEvery redelivers every DupEvery-th frame immediately (modeling a
	// lost ack and sender retransmit); 0 disables duplicates.
	DupEvery int

	// Workers is the delivery concurrency. Ranks are partitioned across
	// workers (rank % Workers) so each rank's frames arrive in order.
	Workers int

	// Shards is the server's ingest shard count (0 = server default).
	Shards int

	// SyncDelayNs is the modeled device sync latency
	// (storage.Disk.SetSyncDelayNs); 0 keeps Sync free. The comparison is
	// about amortizing this cost, so Defaults picks a realistic SSD fsync.
	SyncDelayNs int64

	// Durability configures the server's WAL; the harness installs a fresh
	// in-memory disk per run. A zero value commits (one write + one sync)
	// per outcome.
	Durability server.DurabilityConfig
}

// Defaults returns a config sized for ranks that exercises group commit
// meaningfully: a few frames per rank with heartbeat chatter in between.
func Defaults(ranks int) Config {
	return Config{
		Ranks:              ranks,
		FramesPerRank:      4,
		RecordsPerFrame:    8,
		HeartbeatsPerFrame: 6,
		DupEvery:           2,
		Workers:            8,
		SyncDelayNs:        5_000, // a fast SSD's fsync
	}
}

// Variants lists the durability configurations the harness compares, in
// presentation order.
func Variants() []string { return []string{"per-op", "group", "coalesced"} }

// VariantDurability maps a variant name to its durability configuration
// (without a disk; Run installs one).
func VariantDurability(v string) (server.DurabilityConfig, error) {
	switch v {
	case "per-op":
		return server.DurabilityConfig{}, nil
	case "group":
		return server.DurabilityConfig{FlushEvery: server.DefaultFlushEvery}, nil
	case "coalesced":
		return server.DurabilityConfig{FlushEvery: server.DefaultFlushEvery, Coalesce: true}, nil
	default:
		return server.DurabilityConfig{}, fmt.Errorf("load: unknown variant %q (want per-op, group, or coalesced)", v)
	}
}

// Schedule is the pre-encoded workload: ops[rank] is that rank's delivery
// sequence, each element one Receive call (a frame, a redelivered frame,
// or a heartbeat). Records counts the distinct records the schedule
// carries; Ops counts total deliveries.
type Schedule struct {
	ops     [][][]byte
	Records int64
	Ops     int64
}

// BuildSchedule pre-encodes the workload outside any timed region.
func BuildSchedule(cfg Config) *Schedule {
	s := &Schedule{ops: make([][][]byte, cfg.Ranks)}
	recs := make([]detect.SliceRecord, cfg.RecordsPerFrame)
	for rank := 0; rank < cfg.Ranks; rank++ {
		var perRank [][]byte
		var cum uint64
		for f := 0; f < cfg.FramesPerRank; f++ {
			for i := range recs {
				avg := 100.0 + float64(i)
				if rank%64 == 0 {
					avg *= 2 // a sprinkling of genuine outliers
				}
				recs[i] = detect.SliceRecord{
					Sensor:  i,
					Rank:    rank,
					SliceNs: int64(f) * 1_000_000,
					Count:   4,
					AvgNs:   avg,
				}
			}
			cum += uint64(len(recs))
			frame := server.AppendFrame(nil, server.FrameHeader{
				Rank: rank, Seq: uint64(f) + 1, CumRecords: cum,
			}, recs)
			perRank = append(perRank, frame)
			s.Records += int64(len(recs))
			if cfg.DupEvery > 0 && (f+1)%cfg.DupEvery == 0 {
				perRank = append(perRank, frame) // retransmit after a lost ack
			}
			for h := 0; h < cfg.HeartbeatsPerFrame; h++ {
				now := (int64(f)*int64(cfg.HeartbeatsPerFrame) + int64(h) + 1) * 1_000
				perRank = append(perRank, server.AppendHeartbeat(nil, rank, now, 10_000))
			}
		}
		s.ops[rank] = perRank
		s.Ops += int64(len(perRank))
	}
	return s
}

// Result is one run's throughput and latency report.
type Result struct {
	Variant string
	Ranks   int

	Ops       int64 // Receive calls driven
	Records   int64 // distinct records delivered
	ElapsedNs int64

	RecordsPerSec  float64
	WALBytesPerSec float64
	SyncsPerSec    float64

	// Hot-path Receive latency percentiles, nanoseconds.
	P50Ns int64
	P95Ns int64
	P99Ns int64

	// Raw durability counters for the run.
	WALBytes         int64
	Syncs            int64
	GroupCommits     int64
	CoalescedEntries int64
}

// Run executes the schedule against a fresh durable server under
// cfg.Durability and reports throughput plus hot-path latency. The final
// Checkpoint (flushing any staged commit-group tail) is included in the
// elapsed window — a variant does not get to leave its last group
// unsynced — and the run fails rather than report numbers for a workload
// that did not fully ingest.
func Run(cfg Config, sched *Schedule) (Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = server.DefaultShards
	}
	srv := server.NewSharded(shards)
	dur := cfg.Durability
	dur.Disk = storage.NewDisk(storage.Faults{})
	dur.Disk.SetSyncDelayNs(cfg.SyncDelayNs)
	if dur.SnapshotEvery == 0 {
		dur.SnapshotEvery = -1 // measure the WAL, not snapshot cadence
	}
	srv.AttachDurability(dur)

	workers := cfg.Workers
	if workers > cfg.Ranks {
		workers = cfg.Ranks
	}
	lat := make([][]int64, workers)
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := make([]int64, 0, sched.Ops/int64(workers)+1)
			for rank := w; rank < cfg.Ranks; rank += workers {
				for _, op := range sched.ops[rank] {
					t0 := time.Now()
					err := srv.Receive(op)
					own = append(own, time.Since(t0).Nanoseconds())
					if err != nil {
						firstErr.CompareAndSwap(nil, error(err))
						return
					}
				}
			}
			lat[w] = own
		}(w)
	}
	wg.Wait()
	if err := srv.Checkpoint(); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return Result{}, err
	}
	cov := srv.Coverage()
	if cov.IngestedRecords != sched.Records || cov.Fraction() != 1 {
		return Result{}, fmt.Errorf("load: run ingested %d of %d records", cov.IngestedRecords, sched.Records)
	}

	var all []int64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	st := srv.DurabilityStats()
	sec := elapsed.Seconds()
	return Result{
		Ranks:            cfg.Ranks,
		Ops:              sched.Ops,
		Records:          sched.Records,
		ElapsedNs:        elapsed.Nanoseconds(),
		RecordsPerSec:    float64(sched.Records) / sec,
		WALBytesPerSec:   float64(st.WALBytes) / sec,
		SyncsPerSec:      float64(st.Syncs) / sec,
		P50Ns:            percentile(all, 50),
		P95Ns:            percentile(all, 95),
		P99Ns:            percentile(all, 99),
		WALBytes:         st.WALBytes,
		Syncs:            st.Syncs,
		GroupCommits:     st.GroupCommits,
		CoalescedEntries: st.CoalescedEntries,
	}, nil
}

// RunVariant builds cfg's durability from a named variant and runs it.
func RunVariant(variant string, cfg Config, sched *Schedule) (Result, error) {
	dur, err := VariantDurability(variant)
	if err != nil {
		return Result{}, err
	}
	cfg.Durability = dur
	res, err := Run(cfg, sched)
	res.Variant = variant
	return res, err
}

// percentile returns the p-th percentile of sorted (nearest-rank method);
// 0 for an empty slice.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}
