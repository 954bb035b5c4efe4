package netsrv

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vsensor/internal/server"
)

// ErrFrameRejected is what a frameAckReject status surfaces as on the
// client: the server parsed the envelope but refused the frame (bad CRC,
// bad header, oversized envelope).
var ErrFrameRejected = errors.New("netsrv: server rejected frame")

// DialConfig tunes each connection a ResilientSession dials.
type DialConfig struct {
	// Timeout bounds the TCP connect plus the hello/ack exchange.
	// Default 5s.
	Timeout time.Duration

	// Window is the pipelining depth: how many frames may be in flight
	// before the sender must consume an ack. Default 256.
	Window int

	// OpTimeout is the per-operation I/O deadline after the handshake:
	// every socket write and every blocking ack read must make progress
	// within this window, so a dead or stalled peer surfaces as a timeout
	// error instead of pinning the sender forever. It must be generous
	// enough to cover one full frame write plus a server round trip.
	// Default 10s; negative disables deadlines entirely.
	OpTimeout time.Duration
}

func (c *DialConfig) fillDefaults() {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 10 * time.Second
	}
}

// session is one client-side connection to a Service, speaking the
// envelope protocol for a single run: the per-connection half of a
// ResilientSession, which owns redialing and the resume ledger. Frames go
// out pipelined (SendAsync) and Drain collects their acks.
//
// A session distinguishes two failure classes. Protocol-level statuses
// (ErrFrameRejected, server.ErrServerDown) describe one frame's fate on a
// healthy connection. Transport-level failures (write errors, ack-read
// errors, envelope corruption, deadline expiry) poison the session: the
// first one is remembered and every later call fails fast with it instead
// of writing into a broken pipe — Broken exposes it so the ResilientSession
// can decide to redial. All methods are safe for concurrent use.
type session struct {
	mu        sync.Mutex
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	ack       SessionAck
	window    int
	opTimeout time.Duration
	readDl    time.Time // last armed read deadline (freshness gate)
	writeDl   time.Time // last armed write deadline (freshness gate)
	inflight  int
	pendErr   error // first non-OK ack status seen by the async path
	connErr   error // sticky transport failure; poisons all later calls
	ackBuf    []byte
	closed    atomic.Bool

	// ackHook, when set (by ResilientSession), observes every ack status
	// in arrival order before it is mapped to an error.
	// It runs on the calling goroutine while the session lock is held.
	ackHook func(status byte)
}

// dial connects to a Service and performs the vSS1 handshake for h
// (h.Version defaults to ProtocolVersion). A vSE1 refusal comes back as a
// *Refuse error — errors.As(err, &Refuse{}) exposes the code and the
// retry-after hint. Every handshake-failure path closes the TCP
// connection exactly once, here.
func dial(addr string, h Hello, cfg DialConfig) (*session, error) {
	cfg.fillDefaults()
	if h.Version == 0 {
		h.Version = ProtocolVersion
	}
	if len(h.RunID) == 0 || len(h.RunID) > MaxRunIDLen {
		return nil, fmt.Errorf("netsrv: run ID length %d out of [1,%d]", len(h.RunID), MaxRunIDLen)
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	s, err := handshake(conn, h, cfg)
	if err != nil {
		_ = conn.Close() // the single close site for failed handshakes
		return nil, err
	}
	return s, nil
}

// handshake runs the hello/ack exchange on an open connection. It never
// closes conn — dial owns that on failure.
func handshake(conn net.Conn, h Hello, cfg DialConfig) (*session, error) {
	s := &session{
		conn:      conn,
		r:         bufio.NewReaderSize(conn, 64<<10),
		w:         bufio.NewWriterSize(conn, 64<<10),
		window:    cfg.Window,
		opTimeout: cfg.OpTimeout,
	}
	_ = conn.SetDeadline(time.Now().Add(cfg.Timeout))
	if err := writeEnvelope(s.w, AppendHello(nil, h)); err != nil {
		return nil, err
	}
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	payload, _, err := readEnvelope(s.r, nil, refuseSize+sessionAckSize)
	if err != nil {
		return nil, fmt.Errorf("netsrv: handshake read: %w", err)
	}
	if len(payload) == refuseSize {
		if ref, perr := ParseRefuse(payload); perr == nil {
			return nil, &ref
		}
	}
	ack, err := ParseSessionAck(payload)
	if err != nil {
		return nil, err
	}
	// Steady state runs on per-operation deadlines (armRead/armWrite),
	// not the handshake deadline; clear it so a stale one cannot fire.
	_ = conn.SetDeadline(time.Time{})
	s.ack = ack
	return s, nil
}

// Ack returns the server's session ack: the run's durable LSN and whether
// the run already existed.
func (s *session) Ack() SessionAck { return s.ack }

// Broken returns the sticky transport error that poisoned the session, or
// nil while the connection is still believed healthy. Protocol-level
// per-frame statuses (reject/down) never poison.
func (s *session) Broken() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connErr
}

// fail records the first transport-level failure and returns it; later
// calls keep failing with the original cause.
func (s *session) fail(err error) error {
	if s.connErr == nil {
		s.connErr = err
	}
	return err
}

// armRead and armWrite set the per-operation socket deadlines — the
// dead-peer defense. Each blocking read and each operation's writes must
// make progress within opTimeout. Re-arming is freshness-gated: the
// deadline is pushed out only once it has decayed below opTimeout/2, so
// the effective bound on any single blocking call stays within
// [opTimeout/2, opTimeout] while the hot path skips almost all of the
// runtime-timer churn a per-call SetDeadline would cost.
func (s *session) armRead() {
	if s.opTimeout <= 0 {
		return
	}
	now := time.Now()
	if s.readDl.Sub(now) > s.opTimeout/2 {
		return
	}
	s.readDl = now.Add(s.opTimeout)
	_ = s.conn.SetReadDeadline(s.readDl)
}

func (s *session) armWrite() {
	if s.opTimeout <= 0 {
		return
	}
	now := time.Now()
	if s.writeDl.Sub(now) > s.opTimeout/2 {
		return
	}
	s.writeDl = now.Add(s.opTimeout)
	_ = s.conn.SetWriteDeadline(s.writeDl)
}

// SendAsync queues one encoded frame without waiting for its ack, reading
// an old ack only when the pipeline window is full. Protocol-level ack
// failures surface on a later SendAsync or on Drain; a transport-level
// write failure poisons the session and is returned immediately, so
// callers fail fast instead of pumping frames into a broken pipe.
func (s *session) SendAsync(encoded []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.connErr != nil {
		return s.connErr
	}
	// Consume whatever acks already sit in the local read buffer — the
	// server batches them, and draining here keeps the window open so the
	// writer flushes on its own buffer boundary instead of once per frame.
	s.drainBuffered()
	if s.inflight >= s.window {
		s.armWrite()
		if err := s.w.Flush(); err != nil {
			return s.fail(err)
		}
		if err := s.readAck(); err != nil {
			if s.connErr != nil {
				return err
			}
			if s.pendErr == nil {
				s.pendErr = err
			}
		}
		s.drainBuffered()
	}
	s.armWrite()
	if err := writeEnvelope(s.w, encoded); err != nil {
		return s.fail(err)
	}
	s.inflight++
	return nil
}

// Drain flushes queued frames and consumes every outstanding ack,
// returning the first failure the pipeline saw.
func (s *session) Drain() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.connErr != nil {
		return s.connErr
	}
	return s.drainLocked()
}

func (s *session) drainLocked() error {
	if s.inflight > 0 {
		s.armWrite()
		if err := s.w.Flush(); err != nil {
			return s.fail(err)
		}
	}
	for s.inflight > 0 {
		if err := s.readAck(); err != nil {
			if s.connErr != nil {
				return err // transport broken: no more acks are coming
			}
			if s.pendErr == nil {
				s.pendErr = err
			}
		}
	}
	err := s.pendErr
	s.pendErr = nil
	return err
}

// drainBuffered consumes acks that can be read without touching the
// socket: a full ack envelope is envHeaderSize+1 bytes.
func (s *session) drainBuffered() {
	for s.inflight > 0 && s.connErr == nil && s.r.Buffered() >= envHeaderSize+1 {
		if err := s.readAck(); err != nil && s.connErr == nil && s.pendErr == nil {
			s.pendErr = err
		}
	}
}

// readAck consumes one 1-byte ack envelope and maps it to an error.
// Anything other than a clean, known status is a stream-integrity failure
// and poisons the session.
func (s *session) readAck() error {
	if s.connErr != nil {
		return s.connErr
	}
	if s.inflight > 0 {
		s.inflight--
	}
	s.armRead()
	payload, _, err := readEnvelope(s.r, s.ackBuf, 1)
	if err != nil {
		return s.fail(fmt.Errorf("netsrv: ack read: %w", err))
	}
	s.ackBuf = payload[:0]
	if len(payload) != 1 {
		return s.fail(fmt.Errorf("netsrv: ack envelope has %d bytes, want 1", len(payload)))
	}
	status := payload[0]
	if status > frameAckDown {
		return s.fail(fmt.Errorf("netsrv: unknown ack status %d", status))
	}
	if s.ackHook != nil {
		s.ackHook(status)
	}
	switch status {
	case frameAckDown:
		return server.ErrServerDown
	case frameAckReject:
		return ErrFrameRejected
	default:
		return nil
	}
}

// Close tears down the connection. It is idempotent and safe to call
// concurrently with a blocked operation (the close interrupts it).
func (s *session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	return s.conn.Close()
}
