package server

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/obs"
	"vsensor/internal/storage"
)

// buildGroupSchedule interleaves frames with duplicate redeliveries and
// same-rank heartbeats — the chatter the coalescing encoder collapses —
// then pads with heartbeats to a multiple of window so the final commit
// group flushes. Every element is one Receive call == one delivery outcome.
func buildGroupSchedule(t *testing.T, window int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	frames := buildConformanceFrames(rng, 2, 2, 2)
	var schedule [][]byte
	for i, f := range frames {
		schedule = append(schedule, f)
		if i%2 == 1 {
			schedule = append(schedule, f) // immediate redelivery: a dup outcome
		}
		schedule = append(schedule, AppendHeartbeat(nil, i%2, int64(i+1)*1_000, 5_000))
	}
	for len(schedule)%window != 0 {
		schedule = append(schedule, AppendHeartbeat(nil, 0, int64(len(schedule))*1_000, 5_000))
	}
	return schedule
}

// TestGroupCommitFlushBoundary pins the strict-prefix contract at every
// byte offset inside a commit group: a crash that tears the segment mid
// group recovers exactly the complete entries before the tear — in
// particular, a tear at a group's first byte recovers exactly the previous
// group — and redelivering the schedule suffix from the recovered LSN
// reproduces the never-crashed state.
func TestGroupCommitFlushBoundary(t *testing.T) {
	const window = 4
	schedule := buildGroupSchedule(t, window)

	disk := storage.NewDisk(storage.Faults{})
	s := NewSharded(2)
	s.AttachDurability(DurabilityConfig{Disk: disk, SnapshotEvery: -1, FlushEvery: window, Coalesce: true})
	for _, f := range schedule {
		_ = s.Receive(f)
	}
	if st := s.DurabilityStats(); st.StagedEntries != 0 || st.StagedBytes != 0 {
		t.Fatalf("aligned schedule left %d entries / %d bytes staged", st.StagedEntries, st.StagedBytes)
	}
	seg, err := disk.ReadFile("wal.0")
	if err != nil {
		t.Fatal(err)
	}

	// Walk the segment's entry boundaries. Each entry carries the LSN of
	// the last outcome it covers, so the boundary's LSN is the cumulative
	// outcome count of the complete prefix ending there.
	type boundary struct {
		off      int
		outcomes uint64
	}
	bounds := []boundary{{0, 0}}
	sawCoalesced := false
	for off := 0; off < len(seg); {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		payload := seg[off+walEntryHeader : off+walEntryHeader+n]
		e := walEntry{kind: payload[0], lsn: binary.LittleEndian.Uint64(payload[1:]), body: payload[9:]}
		if span, ok := e.outcomeSpan(); !ok {
			t.Fatalf("entry at %d has invalid span", off)
		} else if span > 1 {
			sawCoalesced = true
		}
		off += walEntryHeader + n
		bounds = append(bounds, boundary{off, e.lsn})
	}
	if !sawCoalesced {
		t.Fatal("schedule produced no coalesced entries; the boundary table would not cover them")
	}
	if last := bounds[len(bounds)-1]; last.outcomes != uint64(len(schedule)) {
		t.Fatalf("segment covers %d outcomes, schedule has %d", last.outcomes, len(schedule))
	}

	type tearCase struct {
		name string
		cut  int
		want uint64 // recovered LSN
	}
	var cases []tearCase
	for i := 1; i < len(bounds); i++ {
		prev, cur := bounds[i-1], bounds[i]
		cases = append(cases,
			tearCase{fmt.Sprintf("entry%d/complete", i), cur.off, cur.outcomes},
			tearCase{fmt.Sprintf("entry%d/first-byte", i), prev.off + 1, prev.outcomes},
			tearCase{fmt.Sprintf("entry%d/header-only", i), prev.off + walEntryHeader, prev.outcomes},
			tearCase{fmt.Sprintf("entry%d/mid-payload", i), prev.off + (cur.off-prev.off)/2, prev.outcomes},
		)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			torn := storage.NewDisk(storage.Faults{})
			if err := torn.Append("wal.0", seg[:tc.cut]); err != nil {
				t.Fatal(err)
			}
			if err := torn.Sync("wal.0"); err != nil {
				t.Fatal(err)
			}
			r := NewSharded(2)
			r.AttachDurability(DurabilityConfig{Disk: torn, FlushEvery: window, Coalesce: true})
			if err := r.Crash(); err != nil {
				t.Fatal(err)
			}
			rs, err := r.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rs.LSN != tc.want {
				t.Fatalf("recovered LSN %d, want %d (cut at byte %d)", rs.LSN, tc.want, tc.cut)
			}
			// Resume redelivery from the recovered LSN and compare with a
			// never-crashed server fed the full schedule.
			for _, f := range schedule[rs.LSN:] {
				_ = r.Receive(f)
			}
			ref := NewSharded(2)
			for _, f := range schedule {
				_ = ref.Receive(f)
			}
			gotRecs, refRecs := r.Records(), ref.Records()
			if len(gotRecs) != len(refRecs) {
				t.Fatalf("recovered log holds %d records, reference %d", len(gotRecs), len(refRecs))
			}
			for j := range gotRecs {
				if gotRecs[j] != refRecs[j] {
					t.Fatalf("record %d differs: got %+v want %+v", j, gotRecs[j], refRecs[j])
				}
			}
			if got, want := r.Coverage(), ref.Coverage(); got != want {
				t.Fatalf("coverage differs:\n got: %+v\nwant: %+v", got, want)
			}
			if got, want := r.Heartbeats(), ref.Heartbeats(); got != want {
				t.Fatalf("heartbeats %d, want %d", got, want)
			}
		})
	}
}

// A staged-but-unflushed commit group dies with the process: the crash
// loses the whole acked tail (LSN 0 with nothing flushed) and clients
// re-send it — the group-commit ack contract.
func TestGroupCommitStagedTailLostAtCrash(t *testing.T) {
	disk := storage.NewDisk(storage.Faults{})
	s := NewSharded(1)
	s.AttachDurability(DurabilityConfig{Disk: disk, SnapshotEvery: -1, FlushEvery: 1 << 10})
	rng := rand.New(rand.NewSource(11))
	frames := buildConformanceFrames(rng, 3, 2, 2)
	for _, f := range frames {
		if err := s.Receive(f); err != nil {
			t.Fatal(err)
		}
	}
	st := s.DurabilityStats()
	if st.StagedEntries != len(frames) || st.Syncs != 0 || st.GroupCommits != 0 {
		t.Fatalf("before crash: staged=%d syncs=%d groups=%d, want %d/0/0",
			st.StagedEntries, st.Syncs, st.GroupCommits, len(frames))
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.LSN != 0 || len(s.Records()) != 0 {
		t.Fatalf("staged tail survived: LSN %d, %d records", rs.LSN, len(s.Records()))
	}
	// Redelivery restores everything.
	for _, f := range frames {
		if err := s.Receive(f); err != nil {
			t.Fatal(err)
		}
	}
	ref := NewSharded(1)
	for _, f := range frames {
		_ = ref.Receive(f)
	}
	if got, want := s.Coverage(), ref.Coverage(); got != want {
		t.Fatalf("coverage after redelivery differs:\n got: %+v\nwant: %+v", got, want)
	}
}

// Checkpoint must close the open coalesced run and flush the staged group
// before capturing the snapshot LSN, so a crash right after a checkpoint
// loses nothing and no run straddles the snapshot boundary.
func TestCheckpointFlushesOpenRun(t *testing.T) {
	disk := storage.NewDisk(storage.Faults{})
	s := NewSharded(1)
	s.AttachDurability(DurabilityConfig{Disk: disk, SnapshotEvery: -1, FlushEvery: 1 << 10, Coalesce: true})
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.Receive(AppendHeartbeat(nil, 3, int64(i+1)*1_000, 5_000)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.DurabilityStats()
	if st.StagedEntries != 1 {
		t.Fatalf("a same-rank heartbeat run staged %d entries, want 1 open run", st.StagedEntries)
	}
	if st.CoalescedEntries != n-1 {
		t.Fatalf("coalesced %d outcomes, want %d", st.CoalescedEntries, n-1)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.LSN != n {
		t.Fatalf("recovered LSN %d, want %d", rs.LSN, n)
	}
	if got := s.Heartbeats(); got != n {
		t.Fatalf("recovered %d heartbeats, want %d", got, n)
	}
	lv := s.Liveness()
	if len(lv) != 1 || lv[0].Rank != 3 || lv[0].LastSeenNs != n*1_000 {
		t.Fatalf("liveness after recovery = %+v, want rank 3 seen at %d ns", lv, n*1_000)
	}
}

// Group commit's observability contract: the wal_group_commits_total and
// wal_coalesced_entries_total counters track the encoder's stats, the
// wal_flush_bytes and wal_sync_wait_ns histograms see one observation per
// commit group, and a lineage-sampled frame leaves its trace as a
// wal_sync_wait_ns exemplar — the operator can follow one record into the
// sync stall it waited out.
func TestGroupCommitObsMetrics(t *testing.T) {
	s := NewSharded(1)
	s.AttachDurability(DurabilityConfig{
		Disk: storage.NewDisk(storage.Faults{}), SnapshotEvery: -1,
		FlushEvery: 4, Coalesce: true,
	})
	o := obs.New()
	o.EnableLineage(obs.LineageConfig{SampleEvery: 1}) // trace everything
	s.SetObs(o)
	c := newTestSender(s, 0, 2)
	for i := 0; i < 8; i++ {
		if err := c.OnSlice(detect.SliceRecord{Sensor: 1, Rank: 0, SliceNs: int64(i), Count: 1, AvgNs: 100}); err != nil {
			t.Fatal(err)
		}
		if err := s.Receive(AppendHeartbeat(nil, 0, int64(i+1)*1_000, 5_000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.DurabilityStats()
	if got := o.Counter("wal_group_commits_total").Value(); got != st.GroupCommits || got == 0 {
		t.Errorf("wal_group_commits_total = %d, stats say %d", got, st.GroupCommits)
	}
	if got := o.Counter("wal_coalesced_entries_total").Value(); got != st.CoalescedEntries || got == 0 {
		t.Errorf("wal_coalesced_entries_total = %d, stats say %d", got, st.CoalescedEntries)
	}
	if got := o.Histogram("wal_flush_bytes").Count(); got != st.GroupCommits {
		t.Errorf("wal_flush_bytes observations = %d, want one per group commit (%d)", got, st.GroupCommits)
	}
	sw := o.Histogram("wal_sync_wait_ns")
	if got := sw.Count(); got != st.GroupCommits {
		t.Errorf("wal_sync_wait_ns observations = %d, want one per group commit (%d)", got, st.GroupCommits)
	}
	ex := sw.Exemplars()
	if len(ex) == 0 {
		t.Fatal("no wal_sync_wait_ns exemplars despite every frame being lineage-sampled")
	}
	for _, e := range ex {
		if e.Trace == 0 {
			t.Errorf("exemplar without a trace: %+v", e)
		}
	}
}

// The coalescing encoder's reason to exist: a heartbeat-heavy workload
// journals at least 5x fewer WAL bytes than per-outcome commits, because a
// run of same-rank heartbeats costs one count-delta entry.
func TestCoalescedWALBytesReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	frames := buildConformanceFrames(rng, 2, 1, 2)
	var schedule [][]byte
	for i, f := range frames {
		schedule = append(schedule, f)
		for j := 0; j < 32; j++ { // heartbeat-heavy steady state
			schedule = append(schedule, AppendHeartbeat(nil, 1, int64(i*32+j+1)*1_000, 5_000))
		}
	}

	run := func(cfg DurabilityConfig) DurabilityStats {
		s := NewSharded(1)
		cfg.Disk = storage.NewDisk(storage.Faults{})
		cfg.SnapshotEvery = -1
		s.AttachDurability(cfg)
		for _, f := range schedule {
			_ = s.Receive(f)
		}
		if err := s.Checkpoint(); err != nil { // flush the tail group
			t.Fatal(err)
		}
		return s.DurabilityStats()
	}

	perOp := run(DurabilityConfig{})
	coal := run(DurabilityConfig{FlushEvery: 64, Coalesce: true})
	if coal.WALBytes*5 > perOp.WALBytes {
		t.Fatalf("coalesced WAL wrote %d bytes, per-op %d: reduction below 5x", coal.WALBytes, perOp.WALBytes)
	}
	if coal.GroupCommits == 0 || coal.CoalescedEntries == 0 {
		t.Fatalf("stats = %+v, want group commits and coalesced outcomes", coal)
	}
	if perOp.Syncs <= coal.Syncs {
		t.Fatalf("per-op synced %d times, coalesced %d: group commit did not amortize", perOp.Syncs, coal.Syncs)
	}
	if coal.FlushEvery != 64 || !coal.Coalesce || perOp.FlushEvery != 1 || perOp.Coalesce {
		t.Fatalf("effective config not surfaced: per-op %+v, coalesced %+v", perOp, coal)
	}
}
