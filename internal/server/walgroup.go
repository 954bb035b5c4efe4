package server

import (
	"encoding/binary"
	"hash/crc32"

	"vsensor/internal/obs"
)

// groupEncoder is the WAL's commit policy (wal.go). It runs with d.mu held
// and shares the LSN counter, the entry framing, and the reusable encode
// buffer on durability. Encoded entries accumulate in a staging buffer and
// hit the device as ONE write + ONE sync when the group covers FlushEvery
// outcomes or DefaultFlushBytes bytes; with FlushEvery 1 every outcome is
// its own write + sync, so its ack implies it is durable. With Coalesce,
// runs of heartbeat/dup/checksum/reject outcomes collapse into a single
// count-delta entry (walKind*N) materialized when the run closes, so
// steady-state chatter costs O(1) journal bytes. Staged outcomes are acked before they
// are written: a crash loses the staged tail and clients re-send from the
// recovered LSN.
type groupEncoder struct {
	d *durability

	buf      []byte // framed entries staged for the next commit group
	entries  int    // finalized entries in buf
	outcomes int    // outcomes covered by the group, open run included

	// The one open coalescible run, held as scalars and materialized into
	// buf when it closes. openKind is the *base* kind (walKindDup /
	// walKindChecksum / walKindReject / walKindHeartbeat); 0 = no open run.
	openKind  byte
	openRank  int
	openCount uint32
	openNow   int64 // heartbeat fold: max virtual now seen in the run
	openLease int64 // lease carried by the run's max-now heartbeat

	// syncTrace is the lineage trace of the newest sampled frame staged in
	// this group; its wal_sync span covers the group's single fsync.
	syncTrace uint64
	syncRank  int
}

// stage frames one encoded payload into the staging buffer (no device
// write). Caller holds d.mu.
func (e *groupEncoder) stage(payload []byte) {
	var hdr [walEntryHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	e.buf = append(e.buf, hdr[:]...)
	e.buf = append(e.buf, payload...)
	e.entries++
}

// closeOpen materializes the open coalesced run, if any, into the staging
// buffer. A run of one encodes as its legacy kind, so segments written
// before coalescing existed still replay, and a journal only uses the
// N-suffixed kinds where a run actually formed.
// At close time d.lsn is exactly the LSN of the run's last outcome.
func (e *groupEncoder) closeOpen() {
	if e.openKind == 0 {
		return
	}
	d := e.d
	var b []byte
	switch e.openKind {
	case walKindDup:
		if e.openCount == 1 {
			b = d.entryAt(walKindDup, d.lsn)
			b = binary.LittleEndian.AppendUint32(b, uint32(e.openRank))
		} else {
			b = d.entryAt(walKindDupN, d.lsn)
			b = binary.LittleEndian.AppendUint32(b, uint32(e.openRank))
			b = binary.LittleEndian.AppendUint32(b, e.openCount)
		}
	case walKindChecksum, walKindReject:
		if e.openCount == 1 {
			b = d.entryAt(e.openKind, d.lsn)
		} else {
			kind := byte(walKindRejectN)
			if e.openKind == walKindChecksum {
				kind = walKindChecksumN
			}
			b = d.entryAt(kind, d.lsn)
			b = binary.LittleEndian.AppendUint32(b, e.openCount)
		}
	case walKindHeartbeat:
		if e.openCount == 1 {
			b = d.entryAt(walKindHeartbeat, d.lsn)
			b = binary.LittleEndian.AppendUint32(b, uint32(e.openRank))
			b = binary.LittleEndian.AppendUint64(b, uint64(e.openNow))
			b = binary.LittleEndian.AppendUint64(b, uint64(e.openLease))
		} else {
			b = d.entryAt(walKindHeartbeatN, d.lsn)
			b = binary.LittleEndian.AppendUint32(b, uint32(e.openRank))
			b = binary.LittleEndian.AppendUint64(b, uint64(e.openNow))
			b = binary.LittleEndian.AppendUint64(b, uint64(e.openLease))
			b = binary.LittleEndian.AppendUint32(b, e.openCount)
		}
	}
	d.buf = b
	e.stage(b)
	e.openKind = 0
	e.openCount = 0
}

// extendOpen tries to absorb one outcome of base kind into the open run.
func (e *groupEncoder) extendOpen(kind byte, rank int) bool {
	if !e.d.cfg.Coalesce || e.openKind != kind {
		return false
	}
	// dup and heartbeat runs are per-rank; checksum/reject runs are global.
	if (kind == walKindDup || kind == walKindHeartbeat) && e.openRank != rank {
		return false
	}
	d := e.d
	e.openCount++
	d.lsn++
	e.outcomes++
	d.coalesced++
	d.obsCoalesced.Inc()
	return true
}

// openRun starts a fresh coalescible run covering the outcome that was
// just assigned d.lsn.
func (e *groupEncoder) openRun(kind byte, rank int) {
	e.openKind = kind
	e.openRank = rank
	e.openCount = 1
}

func (e *groupEncoder) frame(ticket uint64, encoded []byte, trace uint64, rank int) error {
	d := e.d
	e.closeOpen()
	traced := d.lin != nil && trace != 0
	var t0 int64
	if traced {
		t0 = nowUnixNs()
	}
	b := d.entryHead(walKindFrame)
	b = binary.LittleEndian.AppendUint64(b, ticket)
	b = append(b, encoded...)
	d.buf = b
	e.stage(b)
	e.outcomes++
	if traced {
		d.lin.Record(trace, obs.StageWALAppend, rank, 0, t0, nowUnixNs()-t0, int64(len(b)))
		e.syncTrace, e.syncRank = trace, rank
	}
	return e.maybeFlush()
}

func (e *groupEncoder) dup(rank int) error {
	d := e.d
	if e.extendOpen(walKindDup, rank) {
		return e.maybeFlush()
	}
	e.closeOpen()
	d.lsn++
	e.outcomes++
	if e.d.cfg.Coalesce {
		e.openRun(walKindDup, rank)
	} else {
		b := d.entryAt(walKindDup, d.lsn)
		b = binary.LittleEndian.AppendUint32(b, uint32(rank))
		d.buf = b
		e.stage(b)
	}
	return e.maybeFlush()
}

func (e *groupEncoder) badFrame(checksum bool) error {
	d := e.d
	kind := byte(walKindReject)
	if checksum {
		kind = walKindChecksum
	}
	if e.extendOpen(kind, 0) {
		return e.maybeFlush()
	}
	e.closeOpen()
	d.lsn++
	e.outcomes++
	if e.d.cfg.Coalesce {
		e.openRun(kind, 0)
	} else {
		b := d.entryAt(kind, d.lsn)
		d.buf = b
		e.stage(b)
	}
	return e.maybeFlush()
}

func (e *groupEncoder) heartbeat(rank int, nowNs, leaseNs int64) error {
	d := e.d
	if e.d.cfg.Coalesce && e.openKind == walKindHeartbeat && e.openRank == rank {
		// Fold with the same rule receiveHeartbeat applies (liveness.go):
		// the newest virtual now wins and carries its lease, so replaying
		// the folded pair once equals replaying the run in order.
		if nowNs >= e.openNow {
			e.openNow, e.openLease = nowNs, leaseNs
		}
		e.openCount++
		d.lsn++
		e.outcomes++
		d.coalesced++
		d.obsCoalesced.Inc()
		return e.maybeFlush()
	}
	e.closeOpen()
	d.lsn++
	e.outcomes++
	if e.d.cfg.Coalesce {
		e.openRun(walKindHeartbeat, rank)
		e.openNow, e.openLease = nowNs, leaseNs
	} else {
		b := d.entryAt(walKindHeartbeat, d.lsn)
		b = binary.LittleEndian.AppendUint32(b, uint32(rank))
		b = binary.LittleEndian.AppendUint64(b, uint64(nowNs))
		b = binary.LittleEndian.AppendUint64(b, uint64(leaseNs))
		d.buf = b
		e.stage(b)
	}
	return e.maybeFlush()
}

// stagedBytes is the staging buffer plus a conservative estimate for the
// open run's eventual entry (header + kind/lsn prefix + largest body).
func (e *groupEncoder) stagedBytes() int64 {
	n := int64(len(e.buf))
	if e.openKind != 0 {
		n += walEntryHeader + 9 + 24
	}
	return n
}

func (e *groupEncoder) maybeFlush() error {
	if e.outcomes >= e.d.cfg.FlushEvery || e.stagedBytes() >= DefaultFlushBytes {
		return e.flush()
	}
	return nil
}

// flush commits the staged group: one device write, one sync. Caller holds
// d.mu. On error the group stays staged so a later flush can retry.
func (e *groupEncoder) flush() error {
	d := e.d
	e.closeOpen()
	if len(e.buf) == 0 {
		e.outcomes = 0
		return nil
	}
	seg := walSegmentName(d.gen)
	if err := d.disk.Append(seg, e.buf); err != nil {
		return err
	}
	trace := e.syncTrace
	timed := d.obsSyncWait != nil || (d.lin != nil && trace != 0)
	var t0 int64
	if timed {
		t0 = nowUnixNs()
	}
	if err := d.disk.Sync(seg); err != nil {
		return err
	}
	var wait int64
	if timed {
		wait = nowUnixNs() - t0
	}
	d.entries += int64(e.entries)
	d.bytes += int64(len(e.buf))
	d.syncs++
	d.groupCommits++
	d.obsGroupCommits.Inc()
	d.obsFlushBytes.ObserveInt(int64(len(e.buf)))
	d.obsSyncWait.ObserveExemplar(float64(wait), trace)
	if d.lin != nil && trace != 0 {
		d.lin.Record(trace, obs.StageWALSync, e.syncRank, 0, t0, wait, int64(len(e.buf)))
	}
	e.buf = e.buf[:0]
	e.entries = 0
	e.outcomes = 0
	e.syncTrace, e.syncRank = 0, 0
	return nil
}

// reset drops staged state after a crash: the staged tail was acked but
// never written, which is exactly the loss the group-commit ack contract
// permits.
func (e *groupEncoder) reset() {
	e.buf = e.buf[:0]
	e.entries = 0
	e.outcomes = 0
	e.openKind = 0
	e.openCount = 0
	e.syncTrace, e.syncRank = 0, 0
}

func (e *groupEncoder) staged() (int, int64) {
	n := e.entries
	if e.openKind != 0 {
		n++
	}
	return n, e.stagedBytes()
}
