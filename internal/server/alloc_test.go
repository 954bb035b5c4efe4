package server

import (
	"testing"

	"vsensor/internal/detect"
)

// TestFlushSteadyStateAllocs pins the server half of a batch transfer:
// once the sender's wire buffer, the shard's flow/progress entries, and the
// epoch accumulators are warm, encoding a batch with AppendFrame and
// ingesting it allocates nothing beyond the (amortized, pre-sized here)
// growth of the shard sub-log, its segment index, and the epochs' entry
// slices. The emitter half is pinned by transport's
// TestConnFlushSteadyStateAllocs.
func TestFlushSteadyStateAllocs(t *testing.T) {
	s := New()
	c := newTestSender(s, 3, 8)
	batch := make([]detect.SliceRecord, 8)
	for i := range batch {
		batch[i] = detect.SliceRecord{
			Sensor: i, Group: i % 2, Rank: 3,
			SliceNs: int64(i) * 1000, Count: 4,
			AvgNs: 12.5, AvgInstr: 99,
		}
	}
	// Pre-size the append-only structures so their growth doesn't count
	// against the per-flush path, and warm the sender's buffers (and the
	// epoch map entries) with one round.
	sh := s.shardFor(3)
	sh.records = make([]detect.SliceRecord, 0, 16<<10)
	sh.segments = make([]segment, 0, 1<<10)
	for _, r := range batch {
		c.OnSlice(r)
	}
	for si := range s.an.stripes {
		st := &s.an.stripes[si]
		for k, ep := range st.epochs {
			grown := make([]epochEntry, len(ep.entries), 1<<10)
			copy(grown, ep.entries)
			ep.entries = grown
			st.epochs[k] = ep
		}
	}

	avg := testing.AllocsPerRun(200, func() {
		for _, r := range batch {
			c.OnSlice(r)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state OnSlice+Flush allocates %.1f objects per batch, want 0", avg)
	}
}
