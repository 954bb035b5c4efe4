package server

import (
	"testing"

	"vsensor/internal/detect"
)

func TestPerRankProgress(t *testing.T) {
	s := New()
	if pr := s.PerRankProgress(); len(pr) != 0 {
		t.Fatalf("empty server per-rank = %v", pr)
	}
	c0 := newTestSender(s, 0, 1)
	c1 := newTestSender(s, 1, 1)
	c0.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: 1_000_000, Count: 1, AvgNs: 10})
	c0.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: 3_000_000, Count: 1, AvgNs: 10})
	c1.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 2, SliceNs: 2_000_000, Count: 1, AvgNs: 10})
	pr := s.PerRankProgress()
	if len(pr) != 2 {
		t.Fatalf("per-rank entries = %d", len(pr))
	}
	if pr[0].Rank != 0 || pr[0].Records != 2 || pr[0].LatestSliceNs != 3_000_000 {
		t.Errorf("rank 0 progress = %+v", pr[0])
	}
	if pr[1].Rank != 2 || pr[1].Records != 1 || pr[1].LatestSliceNs != 2_000_000 {
		t.Errorf("rank 2 progress = %+v", pr[1])
	}
	if p := s.Progress(); p.LatestSliceNs != 3_000_000 {
		t.Errorf("aggregate latest = %d", p.LatestSliceNs)
	}
}

func TestProgressSnapshot(t *testing.T) {
	s := New()
	if p := s.Progress(); p.Records != 0 || p.LatestSliceNs != 0 {
		t.Errorf("empty progress = %+v", p)
	}
	c := newTestSender(s, 0, 2)
	c.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: 5_000_000, Count: 1, AvgNs: 10})
	c.OnSlice(detect.SliceRecord{Sensor: 0, Rank: 0, SliceNs: 8_000_000, Count: 1, AvgNs: 10})
	p := s.Progress()
	if p.Records != 2 || p.Messages != 1 || p.LatestSliceNs != 8_000_000 {
		t.Errorf("progress = %+v", p)
	}
	if p.Bytes <= 0 {
		t.Error("bytes not accounted")
	}
}
