package transport

import (
	"testing"

	"vsensor/internal/detect"
)

// discard is a Medium that acks every frame without keeping it, so the
// allocation checks below see the emitter's cost alone. The server's
// ingest half is pinned by server's TestFlushSteadyStateAllocs.
type discard struct{ frames int }

func (d *discard) Receive([]byte) error { d.frames++; return nil }

// TestConnFlushSteadyStateAllocs pins the default record path's emitter:
// once a zero-plan Conn's record buffer and wire buffer are warm, buffering
// a batch and shipping it as one frame allocates nothing.
func TestConnFlushSteadyStateAllocs(t *testing.T) {
	sink := &discard{}
	conn := NewLink(sink, FaultPlan{}).NewConn(3, Config{BatchSize: 8})
	batch := make([]detect.SliceRecord, 8)
	for i := range batch {
		batch[i] = detect.SliceRecord{
			Sensor: i, Group: i % 2, Rank: 3,
			SliceNs: int64(i) * 1000, Count: 4,
			AvgNs: 12.5, AvgInstr: 99,
		}
	}
	for _, r := range batch {
		_ = conn.OnSlice(r)
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, r := range batch {
			_ = conn.OnSlice(r)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state OnSlice+Flush allocates %.1f objects per batch, want 0", avg)
	}
	if sink.frames != 202 {
		t.Errorf("medium saw %d frames, want one per batch (202)", sink.frames)
	}
}

// TestZeroPlanConnHasNoRNG pins the lazy fault stream: a Conn on a plan
// without random faults never creates its rand.Source (one ~5 KB object
// per rank on the default path), while a random fault creates it on the
// first roll.
func TestZeroPlanConnHasNoRNG(t *testing.T) {
	link := NewLink(&discard{}, FaultPlan{Seed: 7, CrashAfterFrames: 3, CrashDownFrames: 2})
	if allocs := testing.AllocsPerRun(100, func() { link.NewConn(5, Config{}) }); allocs != 1 {
		t.Errorf("NewConn allocates %.0f objects, want 1 (the Conn itself)", allocs)
	}
	conn := link.NewConn(5, Config{BatchSize: 1})
	for i := 0; i < 10; i++ {
		_ = conn.OnSlice(rec(5, i))
	}
	if conn.rng != nil {
		t.Error("a plan with no random fault created the fault RNG")
	}
	lossy := NewLink(&discard{}, FaultPlan{Seed: 7, Drop: 0.5}).NewConn(5, Config{BatchSize: 1})
	_ = lossy.OnSlice(rec(5, 0))
	if lossy.rng == nil {
		t.Error("a dropping plan rolled no dice")
	}
}
