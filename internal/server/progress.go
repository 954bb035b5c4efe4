package server

import "sort"

// Progress summarizes how much data the server has seen, for live
// dashboards.
type Progress struct {
	Records  int
	Messages int64
	Bytes    int64
	// LatestSliceNs is the most recent slice start observed; it advances
	// with the job's virtual time.
	LatestSliceNs int64
}

// Progress returns a snapshot of the server's ingest state. All fields are
// maintained incrementally at ingest, so a poll touches one counter per
// shard regardless of how many records have accumulated.
func (s *Server) Progress() Progress {
	var p Progress
	for _, sh := range s.shards {
		sh.mu.Lock()
		p.Records += len(sh.records)
		p.Messages += sh.messages
		p.Bytes += sh.bytesReceived
		if sh.latestSliceNs > p.LatestSliceNs {
			p.LatestSliceNs = sh.latestSliceNs
		}
		sh.mu.Unlock()
	}
	return p
}

// RankProgress is one rank's ingest state, for live per-rank dashboards.
type RankProgress struct {
	Rank          int
	Records       int
	LatestSliceNs int64
}

// PerRankProgress returns each rank's incremental ingest state in rank
// order. Like Progress, it reads pre-aggregated per-shard state rather
// than rescanning records.
func (s *Server) PerRankProgress() []RankProgress {
	// Records are routed to shards by the frame header's rank, but progress
	// is keyed by the record payload's rank; a frame carrying records for a
	// different rank would leave entries for one rank in two shards, so
	// merge by rank before sorting.
	merged := make(map[int]RankProgress)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, rp := range sh.perRank {
			m := merged[rp.Rank]
			m.Rank = rp.Rank
			m.Records += rp.Records
			if rp.LatestSliceNs > m.LatestSliceNs {
				m.LatestSliceNs = rp.LatestSliceNs
			}
			merged[rp.Rank] = m
		}
		sh.mu.Unlock()
	}
	out := make([]RankProgress, 0, len(merged))
	for _, m := range merged {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}
