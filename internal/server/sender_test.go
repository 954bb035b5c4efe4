package server

import "vsensor/internal/detect"

// testSender is a frame source for server tests. It frames one rank's
// records the way the rank's emitter (transport.Conn) does on a perfect
// link: batches of up to batch records, dense sequence numbers, cumulative
// record counts, and the lineage trace the server's sampler assigns.
type testSender struct {
	s        *Server
	rank     int
	batch    int
	buf      []detect.SliceRecord
	enc      []byte
	seq, cum uint64
	bytes    int64
}

// newTestSender returns rank's sender, shipping batch records per frame.
func newTestSender(s *Server, rank, batch int) *testSender {
	return &testSender{s: s, rank: rank, batch: batch}
}

// OnSlice buffers one record, shipping the batch once it is full.
func (c *testSender) OnSlice(r detect.SliceRecord) error {
	c.buf = append(c.buf, r)
	if len(c.buf) >= c.batch {
		return c.Flush()
	}
	return nil
}

// Flush encodes the buffered records with AppendFrame and hands the frame
// to the server.
func (c *testSender) Flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	c.seq++
	c.cum += uint64(len(c.buf))
	h := FrameHeader{Rank: c.rank, Seq: c.seq, CumRecords: c.cum}
	if lin := c.s.lin; lin != nil {
		if h.TraceID = lin.TraceID(c.rank, c.seq); h.TraceID != 0 {
			lin.FrameSampled()
		}
	}
	c.enc = AppendFrame(c.enc[:0], h, c.buf)
	c.buf = c.buf[:0]
	c.bytes += int64(len(c.enc))
	return c.s.Receive(c.enc)
}
