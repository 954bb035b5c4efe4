package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/obs"
)

// ---------- vSF2 wire extension ----------

func TestVSF2RoundTrip(t *testing.T) {
	recs := []detect.SliceRecord{
		{Sensor: 1, Group: 2, Rank: 3, SliceNs: 1_000_000, Count: 4, AvgNs: 123.5, AvgInstr: 9.25},
		{Sensor: 7, Group: 0, Rank: 3, SliceNs: 2_000_000, Count: 1, AvgNs: 88},
	}
	h := FrameHeader{Rank: 3, Seq: 5, CumRecords: 10, TraceID: 0xdeadbeefcafe}
	frame := AppendFrame(nil, h, recs)

	got, decoded, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decode vSF2: %v", err)
	}
	if got.TraceID != h.TraceID || got.Rank != 3 || got.Seq != 5 || got.CumRecords != 10 || got.Count != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(decoded) != 2 || decoded[0] != recs[0] || decoded[1] != recs[1] {
		t.Fatalf("payload mismatch: %+v", decoded)
	}
	if tr := TraceOf(frame); tr != h.TraceID {
		t.Fatalf("TraceOf = %#x, want %#x", tr, h.TraceID)
	}

	// The vSF1 encoding of the same content is exactly 8 bytes shorter and
	// carries no trace.
	plain := AppendFrame(nil, FrameHeader{Rank: 3, Seq: 5, CumRecords: 10}, recs)
	if len(plain) != len(frame)-frameTraceSize {
		t.Fatalf("vSF1 len %d, vSF2 len %d, want delta %d", len(plain), len(frame), frameTraceSize)
	}
	if tr := TraceOf(plain); tr != 0 {
		t.Fatalf("TraceOf(vSF1) = %#x, want 0", tr)
	}
	if ph, pd, err := decodeFrame(plain); err != nil || ph.TraceID != 0 || len(pd) != 2 || pd[0] != recs[0] {
		t.Fatalf("vSF1 decode: h=%+v err=%v", ph, err)
	}
}

func TestVSF2TraceCoveredByCRC(t *testing.T) {
	recs := []detect.SliceRecord{{Sensor: 1, Rank: 0, SliceNs: 0, Count: 1, AvgNs: 1}}
	frame := AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1, TraceID: 0xabc}, recs)
	for bit := 0; bit < frameTraceSize*8; bit += 13 {
		damaged := append([]byte(nil), frame...)
		damaged[frameHeaderSize+bit/8] ^= 1 << (bit % 8)
		if _, err := ParseFrame(damaged); !errors.Is(err, ErrChecksum) {
			t.Fatalf("bit %d in trace field flipped: err = %v, want checksum mismatch", bit, err)
		}
	}
}

func TestVSF2ZeroTraceRejected(t *testing.T) {
	// Handcraft a vSF2 frame whose trace field is zero with a valid CRC:
	// the canonical-encoding rule must reject it even though the checksum
	// passes, so each frame has exactly one valid byte encoding.
	recs := []detect.SliceRecord{{Sensor: 1, Rank: 0, SliceNs: 0, Count: 1, AvgNs: 1}}
	frame := AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1, TraceID: 0xabc}, recs)
	binary.LittleEndian.PutUint64(frame[frameHeaderSize:], 0)
	crc := crc32.ChecksumIEEE(frame[:28])
	crc = crc32.Update(crc, crc32.IEEETable, frame[frameHeaderSize:])
	binary.LittleEndian.PutUint32(frame[28:], crc)
	if _, err := ParseFrame(frame); err == nil || errors.Is(err, ErrChecksum) {
		t.Fatalf("zero-trace vSF2 accepted (err = %v), want canonical-encoding rejection", err)
	}
}

func TestZeroTraceEncodesIdenticalVSF1(t *testing.T) {
	// Lineage-off goldens depend on this: a zero TraceID must produce the
	// byte-exact vSF1 frame, not an empty extension.
	recs := []detect.SliceRecord{
		{Sensor: 2, Group: 1, Rank: 4, SliceNs: 3_000_000, Count: 2, AvgNs: 55, AvgInstr: 3},
	}
	a := AppendFrame(nil, FrameHeader{Rank: 4, Seq: 9, CumRecords: 18}, recs)
	b := AppendFrame(nil, FrameHeader{Rank: 4, Seq: 9, CumRecords: 18, TraceID: 0}, recs)
	if !bytes.Equal(a, b) {
		t.Fatal("zero-TraceID encoding differs from vSF1")
	}
	if binary.LittleEndian.Uint32(a[0:]) != frameMagic {
		t.Fatalf("magic %#x, want vSF1", binary.LittleEndian.Uint32(a[0:]))
	}
}

// ---------- spans through the ingest/WAL/epoch pipeline ----------

// stagesByTrace collects the distinct stages recorded for each trace ID.
func stagesByTrace(lin *obs.Lineage) map[uint64]map[obs.Stage]bool {
	spans, _ := lin.Snapshot(nil, 0)
	out := make(map[uint64]map[obs.Stage]bool)
	for _, sp := range spans {
		m := out[sp.Trace]
		if m == nil {
			m = make(map[obs.Stage]bool)
			out[sp.Trace] = m
		}
		m[sp.Stage] = true
	}
	return out
}

func TestLineageSpansThroughServer(t *testing.T) {
	const ranks, slices = 4, 6
	s := NewSharded(4)
	s.AttachDurability(DurabilityConfig{SnapshotEvery: 8})
	o := obs.New()
	lin := o.EnableLineage(obs.LineageConfig{SampleEvery: 1}) // trace everything
	s.SetObs(o)

	clients := make([]*testSender, ranks)
	for r := range clients {
		clients[r] = newTestSender(s, r, 1) // batch 1: one frame per record
	}
	for sl := 0; sl < slices; sl++ {
		for r, c := range clients {
			err := c.OnSlice(detect.SliceRecord{
				Sensor: 0, Rank: r, SliceNs: int64(sl) * 1_000_000,
				Count: 1, AvgNs: 100 + float64(r),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// The query closes every epoch behind the watermark, emitting the
	// epoch_close + verdict spans that end each sampled journey.
	s.InterProcessOutliers(0.9)

	byTrace := stagesByTrace(lin)
	want := []obs.Stage{
		obs.StageIngest, obs.StageDedup, obs.StageWALAppend, obs.StageWALSync,
		obs.StageEpochClose, obs.StageVerdict,
	}
	full := 0
	for _, stages := range byTrace {
		n := 0
		for _, st := range want {
			if stages[st] {
				n++
			}
		}
		if n == len(want) {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no sampled record carries all of %v; journeys: %d traces", want, len(byTrace))
	}
	if got := lin.SampledFrames(); got != ranks*slices {
		t.Fatalf("SampledFrames = %d, want %d (every frame at SampleEvery=1)", got, ranks*slices)
	}

	// Snapshot spans: SnapshotEvery=8 with 24 ingested frames must have
	// checkpointed at least once, on a sampled frame's journey.
	anySnapshot := false
	for _, stages := range byTrace {
		if stages[obs.StageSnapshot] {
			anySnapshot = true
		}
	}
	if !anySnapshot {
		t.Fatal("no snapshot span recorded despite SnapshotEvery=8")
	}

	// The acceptance wiring: the exemplar on the server_ingest histogram
	// resolves back to one of the journeys in the flight recorder.
	top, ok := lin.StageHistogram(obs.StageIngest).TopExemplar()
	if !ok || top.Trace == 0 {
		t.Fatal("server_ingest histogram has no exemplar")
	}
	if byTrace[top.Trace] == nil || !byTrace[top.Trace][obs.StageIngest] {
		t.Fatalf("top exemplar trace %#x not resolvable in the flight recorder", top.Trace)
	}
}

func TestLineageDedupAndReopenSpans(t *testing.T) {
	s := NewSharded(2)
	o := obs.New()
	lin := o.EnableLineage(obs.LineageConfig{SampleEvery: 1})
	s.SetObs(o)

	mkFrame := func(rank int, seq uint64, sliceNs int64) []byte {
		recs := []detect.SliceRecord{{Sensor: 0, Rank: rank, SliceNs: sliceNs, Count: 1, AvgNs: 100}}
		return AppendFrame(nil, FrameHeader{
			Rank: rank, Seq: seq, CumRecords: seq, TraceID: lin.TraceID(rank, seq),
		}, recs)
	}
	// Three ranks cover slices 0 and 1 so slice 0 closes behind the
	// watermark.
	for r := 0; r < 3; r++ {
		for sl := int64(0); sl < 2; sl++ {
			if err := s.Receive(mkFrame(r, uint64(sl)+1, sl*1_000_000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.InterProcessOutliers(0.9)

	// Duplicate delivery: the retransmitted frame is absorbed, and its
	// journey gains a dedup span with arg=1.
	dupFrame := mkFrame(0, 1, 0)
	if err := s.Receive(dupFrame); err != nil {
		t.Fatal(err)
	}
	dupTrace := TraceOf(dupFrame)
	spans, _ := lin.Snapshot(nil, 0)
	sawDup, sawReopen := false, false
	for _, sp := range spans {
		if sp.Stage == obs.StageDedup && sp.Trace == dupTrace && sp.Arg == 1 {
			sawDup = true
		}
		if sp.Stage == obs.StageEpochReopen {
			sawReopen = true
		}
	}
	if !sawDup {
		t.Fatalf("no dedup(arg=1) span for duplicate trace %#x", dupTrace)
	}
	if sawReopen {
		t.Fatal("reopen span before any late record")
	}

	// A late record for the already-closed slice 0 reopens its epoch; the
	// reopen span is attributed to the late record's own trace.
	late := mkFrame(3, 1, 0)
	if err := s.Receive(late); err != nil {
		t.Fatal(err)
	}
	spans, _ = lin.Snapshot(nil, 0)
	for _, sp := range spans {
		if sp.Stage == obs.StageEpochReopen && sp.Trace == TraceOf(late) {
			sawReopen = true
		}
	}
	if !sawReopen {
		t.Fatalf("no epoch_reopen span for late trace %#x", TraceOf(late))
	}
}

// TestLineageSampledSetShardInvariant pins the sampler's key property at the
// system level: which frames are sampled depends only on (seed, rank, seq),
// never on how the server is sharded.
func TestLineageSampledSetShardInvariant(t *testing.T) {
	const ranks, frames = 16, 32
	sampledSet := func(shards int) map[uint64]bool {
		s := NewSharded(shards)
		o := obs.New()
		lin := o.EnableLineage(obs.LineageConfig{SampleEvery: 4, Seed: 99})
		s.SetObs(o)
		clients := make([]*testSender, ranks)
		for r := range clients {
			clients[r] = newTestSender(s, r, 1)
		}
		for seq := 0; seq < frames; seq++ {
			for r, c := range clients {
				err := c.OnSlice(detect.SliceRecord{
					Sensor: 0, Rank: r, SliceNs: int64(seq) * 1_000_000, Count: 1, AvgNs: 50,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		set := make(map[uint64]bool)
		spans, _ := lin.Snapshot(nil, 0)
		for _, sp := range spans {
			if sp.Stage == obs.StageIngest {
				set[sp.Trace] = true
			}
		}
		if len(set) == 0 {
			t.Fatalf("shards=%d sampled nothing", shards)
		}
		return set
	}

	base := sampledSet(1)
	for _, shards := range []int{4, 16} {
		got := sampledSet(shards)
		if len(got) != len(base) {
			t.Fatalf("shards=%d sampled %d traces, shards=1 sampled %d", shards, len(got), len(base))
		}
		for tr := range base {
			if !got[tr] {
				t.Fatalf("shards=%d missing trace %#x sampled at shards=1", shards, tr)
			}
		}
	}
}

// TestWALReplayVSF2 pins two properties of crash recovery under lineage:
// sampled (vSF2) frames journaled to the WAL replay correctly, and replay
// records no spans — the flight recorder describes the process's history,
// not its reconstructed state.
func TestWALReplayVSF2(t *testing.T) {
	const ranks, frames = 3, 4
	s := NewSharded(2)
	s.AttachDurability(DurabilityConfig{})
	o := obs.New()
	lin := o.EnableLineage(obs.LineageConfig{SampleEvery: 1})
	s.SetObs(o)

	for seq := uint64(1); seq <= frames; seq++ {
		for r := 0; r < ranks; r++ {
			recs := []detect.SliceRecord{{
				Sensor: 0, Rank: r, SliceNs: int64(seq-1) * 1_000_000, Count: 1, AvgNs: 100 + float64(r),
			}}
			frame := AppendFrame(nil, FrameHeader{
				Rank: r, Seq: seq, CumRecords: seq, TraceID: lin.TraceID(r, seq),
			}, recs)
			if err := s.Receive(frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantRecords := len(s.Records())
	spansBefore := lin.Stats().Spans

	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Records()); got != wantRecords {
		t.Fatalf("recovered %d records, want %d", got, wantRecords)
	}
	if after := lin.Stats().Spans; after != spansBefore {
		t.Fatalf("WAL replay recorded %d spans (replay must be span-silent)", after-spansBefore)
	}

	// Post-recovery ingest resumes span recording, and a duplicate of a
	// replayed frame is still deduplicated (the vSF2 bytes round-tripped
	// through the WAL with their trace intact).
	dup := AppendFrame(nil, FrameHeader{
		Rank: 0, Seq: 1, CumRecords: 1, TraceID: lin.TraceID(0, 1),
	}, []detect.SliceRecord{{Sensor: 0, Rank: 0, SliceNs: 0, Count: 1, AvgNs: 100}})
	if err := s.Receive(dup); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Records()); got != wantRecords {
		t.Fatalf("duplicate re-ingested after recovery: %d records, want %d", got, wantRecords)
	}
	if after := lin.Stats().Spans; after <= spansBefore {
		t.Fatal("post-recovery ingest recorded no spans")
	}
}

// TestLineageOffIngestUnchanged pins that a server without lineage ingests
// vSF2 frames too (a traced client may talk to an untraced server) and that
// nothing records spans.
func TestLineageOffIngestUnchanged(t *testing.T) {
	s := NewSharded(2)
	frame := AppendFrame(nil, FrameHeader{Rank: 0, Seq: 1, CumRecords: 1, TraceID: 0x1234},
		[]detect.SliceRecord{{Sensor: 0, Rank: 0, SliceNs: 0, Count: 1, AvgNs: 10}})
	if err := s.Receive(frame); err != nil {
		t.Fatalf("lineage-off server rejected vSF2: %v", err)
	}
	if got := len(s.Records()); got != 1 {
		t.Fatalf("got %d records, want 1", got)
	}
}

// benchmark sanity: the lineage bench helpers stamp the same set the live
// client would.
func TestBuildBenchFramesTraced(t *testing.T) {
	lin := obs.NewLineage(obs.LineageConfig{})
	frames := buildBenchFramesTraced(512, lin)
	sampled := 0
	for rank := range frames {
		for sl, frame := range frames[rank] {
			want := lin.TraceID(rank, uint64(sl)+1)
			if got := TraceOf(frame); got != want {
				t.Fatalf("rank %d seq %d: TraceOf = %#x, want %#x", rank, sl+1, got, want)
			}
			if want != 0 {
				sampled++
			}
		}
	}
	if sampled == 0 {
		t.Fatalf("no sampled frames in %d", 512*benchFramesPerRank)
	}
}
