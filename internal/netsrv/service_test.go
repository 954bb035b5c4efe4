package netsrv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vsensor/internal/detect"
	"vsensor/internal/obs"
	"vsensor/internal/server"
)

// testFrame builds one valid vSF1 data frame for rank with n records.
// seq is 1-based; cum counts records through (and including) this frame.
// Receive sends one frame on a bare session and waits for its ack — the
// transport.Medium contract, one round trip per frame — for tests that
// drive a single connection without the ResilientSession around it.
func (s *session) Receive(encoded []byte) error {
	if err := s.SendAsync(encoded); err != nil {
		return err
	}
	return s.Drain()
}

func testFrame(rank int, seq uint64, cum uint64, n int) []byte {
	recs := make([]detect.SliceRecord, n)
	for i := range recs {
		recs[i] = detect.SliceRecord{
			Sensor:  i % 4,
			Group:   1,
			Rank:    rank,
			SliceNs: int64(seq)*1e6 + int64(i),
			Count:   3,
			AvgNs:   100 + float64(i),
		}
	}
	return server.AppendFrame(nil, server.FrameHeader{Rank: rank, Seq: seq, CumRecords: cum}, recs)
}

// waitFor polls cond until it holds or the deadline trips.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSessionRoundTrip(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sess, err := dial(svc.Addr().String(), Hello{RunID: "run-a", Rank: 3}, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Ack().Flags&AckFlagResumed != 0 {
		t.Fatalf("fresh run acked as resumed: %+v", sess.Ack())
	}

	for seq := uint64(1); seq <= 4; seq++ {
		if err := sess.Receive(testFrame(3, seq, seq*5, 5)); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
	}
	// Heartbeats ride the same envelope stream.
	if err := sess.Receive(server.AppendHeartbeat(nil, 3, 1e9, 5e9)); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}

	srv := svc.Tenant("run-a")
	if srv == nil {
		t.Fatal("tenant run-a missing after session")
	}
	if got := len(srv.Records()); got != 20 {
		t.Fatalf("tenant ingested %d records, want 20", got)
	}
	if hb := srv.Heartbeats(); hb != 1 {
		t.Fatalf("tenant saw %d heartbeats, want 1", hb)
	}

	// A corrupt frame is acked as a rejection, not a hang or disconnect.
	bad := testFrame(3, 9, 45, 2)
	bad[len(bad)-1] ^= 0xff
	if err := sess.Receive(bad); !errors.Is(err, ErrFrameRejected) {
		t.Fatalf("corrupt frame: got %v, want ErrFrameRejected", err)
	}
	// And the session is still usable afterwards.
	if err := sess.Receive(testFrame(3, 5, 21, 1)); err != nil {
		t.Fatalf("frame after rejection: %v", err)
	}

	st := svc.Stats()
	if st.FramesIn != 6 || st.FramesRejected != 1 {
		t.Fatalf("stats = %+v, want FramesIn=6 FramesRejected=1", st)
	}
}

func TestSessionResumeLSNAndFlags(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	s1, err := dial(svc.Addr().String(), Hello{RunID: "run-r", Rank: 0}, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Receive(testFrame(0, 1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Second session against the same run ID sees the resumed flag and the
	// same tenant (an in-memory tenant reports LSN 0; the durable path is
	// exercised by the kill-recover conformance suite).
	s2, err := dial(svc.Addr().String(), Hello{RunID: "run-r", Rank: 1, ResumeLSN: 7}, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Ack().Flags&AckFlagResumed == 0 {
		t.Fatalf("second session not acked as resumed: %+v", s2.Ack())
	}
	if ids := svc.RunIDs(); len(ids) != 1 || ids[0] != "run-r" {
		t.Fatalf("RunIDs = %v, want [run-r]", ids)
	}
}

// TestLoadShedExplicitRefusal fills both slots of a MaxConns=2 service —
// one live session, one connection still owing its hello — and asserts the
// next connection is refused with an explicit vSE1 busy + retry-after —
// never a silent drop or hang.
func TestLoadShedExplicitRefusal(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{
		MaxConns:     2,
		RetryAfterMs: 123,
		HelloTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	addr := svc.Addr().String()

	// c1 holds a slot with a live session.
	c1, err := dial(addr, Hello{RunID: "shed", Rank: 0}, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// c2 holds the other slot: it never sends a hello, so its handler
	// waits out the 10 s hello timeout.
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitFor(t, "c2 accepted", func() bool { return svc.Stats().Accepted == 2 })

	// c3 finds every slot taken: explicit refusal, bounded wait.
	done := make(chan error, 1)
	go func() {
		_, derr := dial(addr, Hello{RunID: "shed", Rank: 1}, DialConfig{Timeout: 5 * time.Second})
		done <- derr
	}()
	select {
	case derr := <-done:
		var ref *Refuse
		if !errors.As(derr, &ref) {
			t.Fatalf("shed dial returned %v, want *Refuse", derr)
		}
		if ref.Code != RefuseBusy {
			t.Fatalf("refusal code %d, want RefuseBusy", ref.Code)
		}
		if ref.RetryAfterMs != 123 {
			t.Fatalf("retry-after %dms, want the configured 123", ref.RetryAfterMs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shed connection hung instead of being refused")
	}

	if st := svc.Stats(); st.Shed != 1 {
		t.Fatalf("stats = %+v, want Shed=1", st)
	}
}

// TestConnCapFreesSlots fills MaxConns with live sessions, checks the next
// dial is shed with RefuseBusy, then closes one session and checks a new
// dial is admitted — a finished connection hands its slot back.
func TestConnCapFreesSlots(t *testing.T) {
	const maxConns = 4
	svc, err := Listen("127.0.0.1:0", Config{MaxConns: maxConns})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	addr := svc.Addr().String()

	var sessions []*session
	for i := 0; i < maxConns; i++ {
		s, err := dial(addr, Hello{RunID: "cap", Rank: i}, DialConfig{})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		defer s.Close()
		sessions = append(sessions, s)
		if err := s.Receive(testFrame(i, 1, 1, 1)); err != nil {
			t.Fatalf("session %d frame: %v", i, err)
		}
	}

	var ref *Refuse
	if _, err := dial(addr, Hello{RunID: "cap", Rank: maxConns}, DialConfig{}); !errors.As(err, &ref) || ref.Code != RefuseBusy {
		t.Fatalf("dial past MaxConns: %v, want RefuseBusy", err)
	}

	sessions[0].Close()
	waitFor(t, "slot freed", func() bool {
		s, err := dial(addr, Hello{RunID: "cap", Rank: maxConns}, DialConfig{})
		if err != nil {
			return false
		}
		s.Close()
		return true
	})
	if st := svc.Stats(); st.Shed < 1 || st.Sessions != maxConns+1 {
		t.Fatalf("stats = %+v, want Shed>=1 Sessions=%d", st, maxConns+1)
	}
}

func TestTenantCaps(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{
		MaxConns:       8,
		MaxRuns:        1,
		MaxRunSessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	addr := svc.Addr().String()

	s1, err := dial(addr, Hello{RunID: "only", Rank: 0}, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()

	var ref *Refuse
	if _, err := dial(addr, Hello{RunID: "only", Rank: 1}, DialConfig{}); !errors.As(err, &ref) || ref.Code != RefuseRunSessions {
		t.Fatalf("second session on capped run: %v, want RefuseRunSessions", err)
	}
	if _, err := dial(addr, Hello{RunID: "other", Rank: 0}, DialConfig{}); !errors.As(err, &ref) || ref.Code != RefuseRuns {
		t.Fatalf("second run on capped service: %v, want RefuseRuns", err)
	}
	st := svc.Stats()
	if st.RefusedSessions != 1 || st.RefusedRuns != 1 {
		t.Fatalf("stats = %+v, want RefusedSessions=1 RefusedRuns=1", st)
	}

	// Releasing the session frees the slot for the same run.
	s1.Close()
	waitFor(t, "session slot freed", func() bool {
		s2, err := dial(addr, Hello{RunID: "only", Rank: 2}, DialConfig{})
		if err != nil {
			return false
		}
		defer s2.Close()
		return s2.Ack().Flags&AckFlagResumed != 0
	})
}

func TestBadHelloRefused(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// A data frame where the hello belongs is a protocol violation.
	c, err := net.Dial("tcp", svc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := bufio.NewWriter(c)
	if err := writeEnvelope(w, testFrame(0, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	payload, _, err := readEnvelope(r, nil, refuseSize)
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	ref, err := ParseRefuse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Code != RefuseBadHello {
		t.Fatalf("refusal code %d, want RefuseBadHello", ref.Code)
	}

	// An unsupported protocol version is refused the same way.
	hello := AppendHello(nil, Hello{Version: ProtocolVersion, RunID: "v2", Rank: 0})
	hello[4] = 2 // bump version; CRC now stale too — either failure refuses
	c2, err := net.Dial("tcp", svc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	w2 := bufio.NewWriter(c2)
	if err := writeEnvelope(w2, hello); err != nil {
		t.Fatal(err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	payload, _, err = readEnvelope(bufio.NewReader(c2), nil, refuseSize)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = ParseRefuse(payload); err != nil || ref.Code != RefuseBadHello {
		t.Fatalf("version-2 hello: ref=%+v err=%v, want RefuseBadHello", ref, err)
	}
	if st := svc.Stats(); st.RefusedBadHello != 2 {
		t.Fatalf("stats = %+v, want RefusedBadHello=2", st)
	}
}

// TestCorruptHelloGetsNoRefusal pins the hello path's answer to wire
// damage: a hello envelope whose CRC fails is a broken byte stream, not a
// bad hello, so the service hangs up without a vSE1 verdict — a
// RefuseBadHello would be final for the client, and a resuming session
// would give up on a run the next clean dial could have resumed.
func TestCorruptHelloGetsNoRefusal(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var env bytes.Buffer
	w := bufio.NewWriter(&env)
	if err := writeEnvelope(w, AppendHello(nil, Hello{RunID: "flip"})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	wire := env.Bytes()
	wire[len(wire)-1] ^= 0x10 // one bit flipped in transit

	c, err := net.Dial("tcp", svc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if payload, _, err := readEnvelope(bufio.NewReader(c), nil, refuseSize); err == nil {
		t.Fatalf("corrupt hello answered with envelope %x, want a bare close", payload)
	}
	waitFor(t, "corruption accounting", func() bool { return svc.Stats().CorruptEnvelopes == 1 })
	if st := svc.Stats(); st.RefusedBadHello != 0 || st.Sessions != 0 {
		t.Fatalf("corrupt hello booked as a refusal or a session: %+v", st)
	}
}

// TestShedCountsInStatus wires the service into an obs registry and
// asserts shed/accept counts surface through both /metrics and /status.
func TestShedCountsInStatus(t *testing.T) {
	o := obs.New()
	svc, err := Listen("127.0.0.1:0", Config{MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.SetObs(o)
	o.SetStatus(func() any { return map[string]any{"net": svc.StatusMap()} })

	addr := svc.Addr().String()
	s1, err := dial(addr, Hello{RunID: "obs", Rank: 0}, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitFor(t, "slots filled", func() bool { return svc.Stats().Accepted == 2 })
	if _, err := dial(addr, Hello{RunID: "obs", Rank: 1}, DialConfig{}); err == nil {
		t.Fatal("third connection was not shed")
	}
	waitFor(t, "shed counted", func() bool { return svc.Stats().Shed == 1 })

	ts := httptest.NewServer(o.Handler())
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Run struct {
			Net map[string]any `json:"net"`
		} `json:"run"`
	}
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := body.Run.Net["shed"]; got != float64(1) {
		t.Fatalf("/status net.shed = %v, want 1", got)
	}
	if got := body.Run.Net["accepted"]; got != float64(3) {
		t.Fatalf("/status net.accepted = %v, want 3", got)
	}

	res, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, res.Body); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	metrics := sb.String()
	for _, want := range []string{"net_shed_total 1", "net_accepted_total 3"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestCloseRefusesQueued verifies shutdown answers every connection that
// has not finished its hello with an explicit vSE1 shutdown refusal
// instead of dropping the socket — at once, not after the hello timeout.
func TestCloseRefusesQueued(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{MaxConns: 2, HelloTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	addr := svc.Addr().String()

	s1, err := dial(addr, Hello{RunID: "close", Rank: 0}, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	cq, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	waitFor(t, "conn accepted", func() bool { return svc.Stats().Accepted == 2 })

	closeDone := make(chan error, 1)
	go func() { closeDone <- svc.Close() }()

	_ = cq.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(cq)
	payload, _, err := readEnvelope(r, nil, refuseSize)
	if err != nil {
		t.Fatalf("hello-less conn read during shutdown: %v", err)
	}
	ref, err := ParseRefuse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Code != RefuseShutdown {
		t.Fatalf("refusal code %d, want RefuseShutdown", ref.Code)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := svc.Stats(); st.RefusedShutdown != 1 {
		t.Fatalf("stats = %+v, want RefusedShutdown=1", st)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseRefusesLateHandler holds a connection's handler before it joins
// the connection set until Close has begun, so Close's sweep cannot see it:
// the handler itself must answer RefuseShutdown at once — not after the
// hello timeout — and Close must wait for it.
func TestCloseRefusesLateHandler(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	svc, err := Listen("127.0.0.1:0", Config{
		HelloTimeout: time.Minute,
		tuneConn: func(net.Conn) {
			close(entered)
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", svc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	<-entered

	closeDone := make(chan error, 1)
	go func() { closeDone <- svc.Close() }()
	waitFor(t, "Close begun", func() bool { return svc.closed.Load() })
	close(release)

	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, _, err := readEnvelope(bufio.NewReader(c), nil, refuseSize)
	if err != nil {
		t.Fatalf("late conn read during shutdown: %v", err)
	}
	if ref, err := ParseRefuse(payload); err != nil || ref.Code != RefuseShutdown {
		t.Fatalf("late conn refusal = %+v, %v; want RefuseShutdown", ref, err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := svc.Stats(); st.RefusedShutdown != 1 {
		t.Fatalf("stats = %+v, want RefusedShutdown=1", st)
	}
}

// TestSessionPipelinedSend exercises the windowed async path that the
// ingest benchmarks ride: more frames than the pipeline window, a corrupt
// frame mid-stream whose rejection must surface on Drain (not get lost in
// the ack batch), and a clean pipeline afterwards.
func TestSessionPipelinedSend(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sess, err := dial(svc.Addr().String(), Hello{RunID: "pipe", Rank: 0}, DialConfig{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const frames = 100
	for seq := uint64(1); seq <= frames; seq++ {
		f := testFrame(0, seq, seq*2, 2)
		if seq == 37 {
			f[len(f)-1] ^= 0xFF // CRC breaks; server reject-acks, stream continues
		}
		if err := sess.SendAsync(f); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
	}
	if err := sess.Drain(); !errors.Is(err, ErrFrameRejected) {
		t.Fatalf("Drain = %v, want ErrFrameRejected for the corrupt frame", err)
	}
	// The rejection was consumed with the drain; the pipeline is clean again.
	if err := sess.SendAsync(testFrame(0, 101, 202, 2)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Drain(); err != nil {
		t.Fatalf("second Drain = %v", err)
	}
	srv := svc.Tenant("pipe")
	// Frame 37 was rejected (2 records lost); everything else landed.
	if got, want := len(srv.Records()), (frames-1+1)*2; got != want {
		t.Fatalf("tenant ingested %d records, want %d", got, want)
	}
	if st := svc.Stats(); st.FramesRejected != 1 {
		t.Fatalf("FramesRejected = %d, want 1", st.FramesRejected)
	}
}

// TestRefuseErrorStrings pins the operator-facing rendering of every
// refusal code: the code name and the retry-after hint must both appear.
func TestRefuseErrorStrings(t *testing.T) {
	for code, name := range map[uint16]string{
		RefuseBusy:        "busy",
		RefuseRunSessions: "per-run session cap",
		RefuseRuns:        "run cap",
		RefuseBadHello:    "bad hello",
		RefuseShutdown:    "shutting down",
		99:                "code 99",
	} {
		r := Refuse{Version: ProtocolVersion, Code: code, RetryAfterMs: 250}
		msg := r.Error()
		if !strings.Contains(msg, name) || !strings.Contains(msg, "250ms") {
			t.Errorf("Refuse{Code:%d}.Error() = %q, want it to mention %q and 250ms", code, msg, name)
		}
	}
}

// TestOversizedEnvelopeRejected sends an envelope whose declared length
// exceeds MaxEnvelopeBytes. The server must not allocate the claimed
// buffer: it discards the payload bytes, reject-acks, and keeps the
// session usable for the next well-formed frame.
func TestOversizedEnvelopeRejected(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	conn, err := net.Dial("tcp", svc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	r := bufio.NewReader(conn)
	if err := writeEnvelope(w, AppendHello(nil, Hello{Version: ProtocolVersion, RunID: "big", Rank: 0})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readEnvelope(r, nil, sessionAckSize); err != nil {
		t.Fatalf("handshake: %v", err)
	}

	// Declared length one past the cap, followed by exactly that many
	// bytes with a truthful envelope CRC: a genuine oversized frame, not
	// wire corruption, so the server drains it and keeps the session.
	const declared = MaxEnvelopeBytes + 1
	zeros := make([]byte, 32<<10)
	zcrc := uint32(0)
	for n := 0; n < declared; {
		chunk := declared - n
		if chunk > len(zeros) {
			chunk = len(zeros)
		}
		zcrc = crc32.Update(zcrc, crc32.IEEETable, zeros[:chunk])
		n += chunk
	}
	var hdr [envHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(declared))
	binary.LittleEndian.PutUint32(hdr[4:], zcrc)
	if _, err := w.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(w, zeroReader{}, declared); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ack, _, err := readEnvelope(r, nil, 1)
	if err != nil {
		t.Fatalf("ack after oversized envelope: %v", err)
	}
	if len(ack) != 1 || ack[0] != frameAckReject {
		t.Fatalf("oversized envelope ack = %v, want reject", ack)
	}

	// The stream is still framed correctly: a valid frame lands.
	if err := writeEnvelope(w, testFrame(0, 1, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ack, _, err = readEnvelope(r, ack[:0], 1)
	if err != nil || len(ack) != 1 || ack[0] != frameAckOK {
		t.Fatalf("frame after oversized envelope: ack %v err %v", ack, err)
	}
	if got := len(svc.Tenant("big").Records()); got != 3 {
		t.Fatalf("tenant ingested %d records, want 3", got)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}
