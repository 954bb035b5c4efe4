package netsrv

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vsensor/internal/obs"
	"vsensor/internal/server"
)

// MaxEnvelopeBytes caps a single envelope's declared payload length. The
// largest legal data frame (MaxFrameRecords records plus the vSF2 header)
// is ~40 MiB; 64 MiB leaves headroom without letting a hostile length
// prefix allocate the machine away.
const MaxEnvelopeBytes = 64 << 20

// Config shapes a Service. The zero value is usable: defaults fill in a
// single-shard tenant factory and a connection cap.
type Config struct {
	// MaxConns caps the connections handled at once, each on its own
	// goroutine from accept to hang-up. A connection arriving with every
	// slot taken is shed: it gets an explicit vSE1 busy reply with
	// RetryAfterMs and is closed — never silently dropped. Default 72.
	MaxConns int

	// MaxRuns caps concurrent runs (tenants); 0 means unlimited.
	MaxRuns int

	// MaxRunSessions caps concurrent sessions per run; 0 means unlimited.
	MaxRunSessions int

	// RetryAfterMs is the backoff hint stamped into vSE1 refusals.
	// Default 50.
	RetryAfterMs uint32

	// HelloTimeout bounds how long an accepted connection may dawdle
	// before completing its vSS1 hello. Default 5s.
	HelloTimeout time.Duration

	// WriteTimeout is the deadline armed before every ack-bearing flush
	// (session ack, frame acks, refusals): a peer that stops reading
	// cannot pin a connection slot once the socket buffers fill. Default
	// 5s; negative disables.
	WriteTimeout time.Duration

	// IdleSession, when positive, is the dead-peer reaper: an admitted
	// session that does not complete an envelope (data frame or
	// heartbeat) within this window is closed and counted in
	// SessionsReaped. Slow-loris senders trip it too — the window bounds
	// the whole envelope, not the gap between bytes. 0 disables.
	IdleSession time.Duration

	// Shards is the shard count the default tenant factory passes to
	// server.NewSharded. Default 1.
	Shards int

	// tuneConn, when set, runs on every accepted connection before the
	// handshake — the in-package test seam for shrinking socket buffers
	// so deadline behavior is reachable without megabytes of traffic.
	tuneConn func(net.Conn)

	// NewServer, when set, builds the analysis server for a new run ID —
	// the hook through which tests attach durability or obs to specific
	// tenants, and through which the facade hands the service its own
	// pre-built server. When nil, tenants get server.NewSharded(Shards).
	NewServer func(runID string) *server.Server
}

func (c *Config) fillDefaults() {
	if c.MaxConns <= 0 {
		c.MaxConns = 72
	}
	if c.RetryAfterMs == 0 {
		c.RetryAfterMs = 50
	}
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = 5 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
}

// Stats is a point-in-time snapshot of service counters; every refused
// connection shows up in exactly one Refused* bucket, so
// Accepted == handled + sum(Refused*) at all times — the "never a silent
// drop" ledger.
type Stats struct {
	Accepted         int64 // connections the listener accepted
	Shed             int64 // refused with vSE1 busy (all MaxConns slots taken)
	RefusedSessions  int64 // refused: per-run session cap
	RefusedRuns      int64 // refused: run (tenant) cap
	RefusedBadHello  int64 // refused: malformed/unsupported hello
	RefusedShutdown  int64 // refused: service closing
	Sessions         int64 // sessions ever admitted
	SessionsOpen     int64 // sessions currently streaming
	Runs             int64 // live tenants
	FramesIn         int64 // data envelopes delivered to tenant servers
	FramesRejected   int64 // data envelopes acked with frameAckReject
	FramesDown       int64 // data envelopes acked with frameAckDown
	SessionsReaped   int64 // sessions closed by the dead-peer defense (idle reaper or ack-write timeout)
	CorruptEnvelopes int64 // connections killed by an envelope CRC mismatch
}

type tenant struct {
	srv      *server.Server
	sessions int
}

// Service is the networked multi-tenant analysis server: one TCP listener
// multiplexing many runs, each run owning its own sharded server (and
// whatever durability/snapshot machinery the tenant factory attached).
type Service struct {
	cfg Config
	ln  net.Listener

	slots      chan struct{} // one token per connection being handled
	acceptDone chan struct{}
	closed     atomic.Bool
	wg         sync.WaitGroup // connection handlers

	mu    sync.Mutex
	runs  map[string]*tenant
	conns map[net.Conn]bool // value: admitted (hello parsed)

	accepted        atomic.Int64
	shed            atomic.Int64
	refusedSessions atomic.Int64
	refusedRuns     atomic.Int64
	refusedBadHello atomic.Int64
	refusedShutdown atomic.Int64
	sessions        atomic.Int64
	sessionsOpen    atomic.Int64
	framesIn        atomic.Int64
	framesRejected  atomic.Int64
	framesDown      atomic.Int64
	sessionsReaped  atomic.Int64
	corruptEnv      atomic.Int64

	// met is swapped atomically so SetObs may race the accept loop; the
	// zero-value pointer target is all-nil handles, which are no-ops.
	met atomic.Pointer[obsHandles]
}

// obsHandles bundles the metric handles mirrored into an obs registry.
// Every field is nil-safe, so a zero obsHandles is a valid no-op set.
type obsHandles struct {
	accepted *obs.Counter
	shed     *obs.Counter
}

// Listen binds addr (e.g. "127.0.0.1:0"), starts the accept loop, and
// returns the running service.
func Listen(addr string, cfg Config) (*Service, error) {
	cfg.fillDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsrv: listen %s: %w", addr, err)
	}
	s := &Service{
		cfg:        cfg,
		ln:         ln,
		slots:      make(chan struct{}, cfg.MaxConns),
		acceptDone: make(chan struct{}),
		runs:       make(map[string]*tenant),
		conns:      make(map[net.Conn]bool),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr is the listener's bound address (useful with ":0").
func (s *Service) Addr() net.Addr { return s.ln.Addr() }

// SetObs mirrors service counters into an observability registry so they
// surface in /metrics and /status alongside the server's own.
func (s *Service) SetObs(o *obs.Obs) {
	s.met.Store(&obsHandles{
		accepted: o.Counter("net_accepted_total"),
		shed:     o.Counter("net_shed_total"),
	})
}

// metrics returns the current handle set, never nil.
func (s *Service) metrics() *obsHandles {
	if m := s.met.Load(); m != nil {
		return m
	}
	return &obsHandles{}
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	runs := int64(len(s.runs))
	s.mu.Unlock()
	return Stats{
		Accepted:         s.accepted.Load(),
		Shed:             s.shed.Load(),
		RefusedSessions:  s.refusedSessions.Load(),
		RefusedRuns:      s.refusedRuns.Load(),
		RefusedBadHello:  s.refusedBadHello.Load(),
		RefusedShutdown:  s.refusedShutdown.Load(),
		Sessions:         s.sessions.Load(),
		SessionsOpen:     s.sessionsOpen.Load(),
		Runs:             runs,
		FramesIn:         s.framesIn.Load(),
		FramesRejected:   s.framesRejected.Load(),
		FramesDown:       s.framesDown.Load(),
		SessionsReaped:   s.sessionsReaped.Load(),
		CorruptEnvelopes: s.corruptEnv.Load(),
	}
}

// StatusMap renders the stats for an obs /status provider.
func (s *Service) StatusMap() map[string]any {
	st := s.Stats()
	return map[string]any{
		"accepted":          st.Accepted,
		"shed":              st.Shed,
		"refused_sessions":  st.RefusedSessions,
		"refused_runs":      st.RefusedRuns,
		"refused_badhello":  st.RefusedBadHello,
		"refused_shutdown":  st.RefusedShutdown,
		"sessions":          st.Sessions,
		"sessions_open":     st.SessionsOpen,
		"runs":              st.Runs,
		"frames_in":         st.FramesIn,
		"frames_rejected":   st.FramesRejected,
		"frames_down":       st.FramesDown,
		"sessions_reaped":   st.SessionsReaped,
		"corrupt_envelopes": st.CorruptEnvelopes,
	}
}

// Tenant returns the analysis server owned by runID, or nil if that run
// has never opened a session.
func (s *Service) Tenant(runID string) *server.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.runs[runID]; t != nil {
		return t.srv
	}
	return nil
}

// RunIDs lists live tenants, sorted.
func (s *Service) RunIDs() []string {
	s.mu.Lock()
	ids := make([]string, 0, len(s.runs))
	for id := range s.runs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Close stops the listener, refuses every connection that has not
// finished its hello (vSE1 shutdown — even at teardown nothing is silently
// dropped), closes admitted session connections, and waits for every
// handler to return.
func (s *Service) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.ln.Close()
	<-s.acceptDone
	// The accept loop has exited and track refuses once closed is set, so
	// no handler joins conns after this sweep. An expired read deadline
	// wakes a handler still waiting on its hello; it answers
	// RefuseShutdown.
	s.mu.Lock()
	for c, admitted := range s.conns {
		if admitted {
			_ = c.Close()
		} else {
			_ = c.SetReadDeadline(time.Unix(1, 0))
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Service) acceptLoop() {
	defer close(s.acceptDone)
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.accepted.Add(1)
		s.metrics().accepted.Inc()
		select {
		case s.slots <- struct{}{}:
			s.wg.Add(1)
			go s.handleConn(c)
		default:
			// Load shed: every slot is taken. Tell the client explicitly
			// and hint a backoff; the write happens off the accept loop
			// so a slow refused peer cannot stall admission.
			s.shed.Add(1)
			s.metrics().shed.Inc()
			go s.writeRefuse(c, RefuseBusy)
		}
	}
}

// track records c in the connection set, as admitted once its hello has
// parsed. It reports false once Close has begun: the caller must then
// refuse with RefuseShutdown, because Close's sweep may already be past.
func (s *Service) track(c net.Conn, admitted bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[c] = admitted
	return true
}

// refuse books a refusal in its Refused* bucket, then answers c with it.
func (s *Service) refuse(c net.Conn, code uint16) {
	switch code {
	case RefuseRuns:
		s.refusedRuns.Add(1)
	case RefuseRunSessions:
		s.refusedSessions.Add(1)
	case RefuseBadHello:
		s.refusedBadHello.Add(1)
	case RefuseShutdown:
		s.refusedShutdown.Add(1)
	}
	s.writeRefuse(c, code)
}

// writeRefuse sends a vSE1 and closes the connection. Best effort under a
// short deadline: the refusal is a courtesy, the close is the guarantee.
func (s *Service) writeRefuse(c net.Conn, code uint16) {
	defer c.Close()
	_ = c.SetWriteDeadline(time.Now().Add(time.Second))
	w := bufio.NewWriter(c)
	payload := AppendRefuse(nil, Refuse{Version: ProtocolVersion, Code: code, RetryAfterMs: s.cfg.RetryAfterMs})
	if err := writeEnvelope(w, payload); err == nil {
		_ = w.Flush()
	}
}

// admit applies tenancy admission control for a parsed hello. It returns
// the tenant (created on first contact) or a refusal code.
func (s *Service) admit(h Hello) (*tenant, uint16, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, existed := s.runs[h.RunID]
	if !existed {
		if s.cfg.MaxRuns > 0 && len(s.runs) >= s.cfg.MaxRuns {
			return nil, RefuseRuns, false
		}
		var srv *server.Server
		if s.cfg.NewServer != nil {
			srv = s.cfg.NewServer(h.RunID)
		} else {
			srv = server.NewSharded(s.cfg.Shards)
		}
		t = &tenant{srv: srv}
		s.runs[h.RunID] = t
	}
	if s.cfg.MaxRunSessions > 0 && t.sessions >= s.cfg.MaxRunSessions {
		return nil, RefuseRunSessions, false
	}
	t.sessions++
	return t, 0, existed
}

func (s *Service) releaseSession(runID string) {
	s.mu.Lock()
	if t := s.runs[runID]; t != nil {
		t.sessions--
	}
	s.mu.Unlock()
}

// handleConn runs one session: hello, admission, then the frame/ack loop
// until the peer hangs up or the service closes. It owns one slot, which
// it hands back on return.
func (s *Service) handleConn(c net.Conn) {
	defer func() {
		<-s.slots
		s.wg.Done()
	}()
	defer c.Close()
	if s.cfg.tuneConn != nil {
		s.cfg.tuneConn(c)
	}
	// Arm the hello deadline before joining conns, so Close's expired
	// deadline is never overwritten by this one.
	_ = c.SetReadDeadline(time.Now().Add(s.cfg.HelloTimeout))
	if !s.track(c, false) {
		s.refuse(c, RefuseShutdown)
		return
	}
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	r := bufio.NewReaderSize(c, 64<<10)
	w := bufio.NewWriterSize(c, 64<<10)

	payload, _, err := readEnvelope(r, nil, helloHeaderSize+MaxRunIDLen)
	if err != nil && !isTimeout(err) {
		// A torn, oversized, or CRC-failing envelope says nothing about
		// the client's hello — the byte stream itself is damaged. Hang up
		// without a verdict: a RefuseBadHello here would read as a
		// permanent refusal and stop a resuming client from redialing.
		if errors.Is(err, ErrEnvelopeCorrupt) || errors.Is(err, ErrEnvelopeTooLarge) {
			s.corruptEnv.Add(1)
		}
		return
	}
	if err != nil && s.closed.Load() {
		// Close expired the hello deadline.
		s.refuse(c, RefuseShutdown)
		return
	}
	if err != nil || !isHello(payload) {
		s.refuse(c, RefuseBadHello)
		return
	}
	h, err := ParseHello(payload)
	if err != nil {
		s.refuse(c, RefuseBadHello)
		return
	}
	if !s.track(c, true) {
		s.refuse(c, RefuseShutdown)
		return
	}
	_ = c.SetReadDeadline(time.Time{})

	t, code, existed := s.admit(h)
	if t == nil {
		s.refuse(c, code)
		return
	}
	defer s.releaseSession(h.RunID)

	s.sessions.Add(1)
	s.sessionsOpen.Add(1)
	defer s.sessionsOpen.Add(-1)

	ack := SessionAck{Version: ProtocolVersion, LSN: t.srv.DurabilityStats().LSN}
	if existed {
		ack.Flags |= AckFlagResumed
	}
	s.armWrite(c)
	if err := writeEnvelope(w, AppendSessionAck(nil, ack)); err != nil {
		return
	}
	if err := w.Flush(); err != nil {
		s.countWriteTimeout(err)
		return
	}

	// Frame/ack loop. Acks are written in order and flushed once the read
	// side has no buffered input — pipelined senders get batched acks,
	// synchronous senders get an immediate one. A byte threshold also
	// forces the flush so a sender that never lets the read buffer drain
	// still sees acks early enough to keep its pipeline window open
	// (otherwise the two sides fall into half-duplex lock-step).
	//
	// Two dead-peer defenses guard the loop. The read side is the idle
	// reaper: with IdleSession set, each envelope — heartbeats included —
	// must complete within the window, so an idle peer, a half-open
	// connection, or a slow-loris byte-dribbler all get reaped instead of
	// pinning this connection's slot. The write side is the ack deadline inside
	// writeAck. An envelope CRC mismatch means the byte stream itself is
	// corrupt: kill the connection and let reconnect + resume-LSN
	// redeliver (a per-frame reject would desynchronize frame/ack order).
	var buf []byte
	ackScratch := []byte{0}
	for {
		if s.cfg.IdleSession > 0 {
			_ = c.SetReadDeadline(time.Now().Add(s.cfg.IdleSession))
		}
		payload, hdr, err := readEnvelope(r, buf, MaxEnvelopeBytes)
		if errors.Is(err, ErrEnvelopeTooLarge) {
			if derr := drainEnvelope(r, hdr); derr != nil {
				if errors.Is(derr, ErrEnvelopeCorrupt) {
					s.corruptEnv.Add(1)
				}
				return
			}
			s.framesRejected.Add(1)
			ackScratch[0] = frameAckReject
			if s.writeAck(c, w, r, ackScratch) != nil {
				return
			}
			continue
		}
		if err != nil {
			if errors.Is(err, ErrEnvelopeCorrupt) {
				s.corruptEnv.Add(1)
			} else if s.cfg.IdleSession > 0 && isTimeout(err) {
				s.sessionsReaped.Add(1)
			}
			return
		}
		buf = payload[:0]
		status := byte(frameAckOK)
		switch rerr := t.srv.Receive(payload); {
		case rerr == nil:
			s.framesIn.Add(1)
		case errors.Is(rerr, server.ErrServerDown):
			s.framesDown.Add(1)
			status = frameAckDown
		default:
			s.framesRejected.Add(1)
			status = frameAckReject
		}
		ackScratch[0] = status
		if s.writeAck(c, w, r, ackScratch) != nil {
			return
		}
	}
}

// ackFlushBytes is the buffered-ack threshold that forces a flush even
// while more frames are still queued on the read side. Liveness does not
// depend on it — the reader-dry check in writeAck flushes whenever the
// inbound stream pauses, whatever the client's window — so the threshold
// is purely a syscall batching knob for the firehose case.
const ackFlushBytes = 1024

// armWrite arms the configured write deadline on c.
func (s *Service) armWrite(c net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		_ = c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
}

// countWriteTimeout books a flush failure as a reaped session when it was
// the write deadline firing — a peer that stopped reading its acks.
func (s *Service) countWriteTimeout(err error) {
	if err != nil && isTimeout(err) {
		s.sessionsReaped.Add(1)
	}
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// writeAck queues a 1-byte ack envelope and flushes if the reader is dry
// or enough acks have accumulated. Every flush runs under the write
// deadline: a stalled reader trips it instead of pinning the slot once
// the socket buffers fill.
func (s *Service) writeAck(c net.Conn, w *bufio.Writer, r *bufio.Reader, status []byte) error {
	if err := writeEnvelope(w, status); err != nil {
		return err
	}
	if r.Buffered() == 0 || w.Buffered() >= ackFlushBytes {
		s.armWrite(c)
		err := w.Flush()
		s.countWriteTimeout(err)
		return err
	}
	return nil
}
