package netsrv

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"vsensor/internal/server"
)

// RetryPolicy shapes dial retries: how long to keep trying, how fast the
// net-error backoff grows, and whether plain network errors are retried
// at all (vSE1 refusals with a retry-after hint always are, when the code
// is transient).
type RetryPolicy struct {
	// MaxElapsed is the total retry budget for the first dial and, with
	// NetErrors, for each later outage. Default 10s.
	MaxElapsed time.Duration

	// BackoffBase is the first sleep after a retryable failure with no
	// server hint; it doubles per attempt up to BackoffMax. Defaults
	// 5ms / 500ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// NetErrors makes network errors retryable, not just explicit vSE1
	// refusals: a failed dial is retried within the budget, and a
	// connection that breaks mid-session is redialled within a fresh
	// per-outage budget. Off, the session has a zero outage budget: an
	// unreachable address fails the first dial fast, and a broken
	// connection is final — every later operation fails with
	// server.ErrServerDown.
	NetErrors bool

	// Seed drives the backoff jitter deterministically.
	Seed int64
}

func (p *RetryPolicy) fillDefaults() {
	if p.MaxElapsed <= 0 {
		p.MaxElapsed = 10 * time.Second
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 5 * time.Millisecond
	}
	if p.BackoffMax < p.BackoffBase {
		p.BackoffMax = 500 * time.Millisecond
		if p.BackoffMax < p.BackoffBase {
			p.BackoffMax = p.BackoffBase
		}
	}
}

// retryableRefusal reports whether a vSE1 code describes a transient
// condition worth honoring the retry-after hint for. Bad hellos and the
// run cap are permanent from one client's point of view.
func retryableRefusal(code uint16) bool {
	switch code {
	case RefuseBusy, RefuseRunSessions, RefuseShutdown:
		return true
	}
	return false
}

// dialLocked is the retry engine: dial, classify the failure, sleep the
// server's hint (refusals) or a jittered exponential backoff (net errors),
// repeat until the deadline. Attempts, honored refusals, and backoff
// sleeps are booked in r.stats.
func (r *ResilientSession) dialLocked(h Hello, deadline time.Time) (*session, error) {
	p, st := &r.cfg.Retry, &r.stats
	backoff := p.BackoffBase
	for {
		st.DialAttempts++
		s, err := dial(r.cfg.Addr, h, r.cfg.Dial)
		if err == nil {
			return s, nil
		}
		var ref *Refuse
		var wait time.Duration
		switch {
		case errors.As(err, &ref):
			if !retryableRefusal(ref.Code) {
				return nil, err
			}
			st.Refusals++
			wait = time.Duration(ref.RetryAfterMs) * time.Millisecond
			if wait <= 0 {
				wait = backoff
			}
		case p.NetErrors:
			wait = backoff
		default:
			return nil, err
		}
		// ±25% deterministic jitter so a fleet of resuming clients does
		// not stampede the listener in lock-step.
		wait += time.Duration(r.rng.Int63n(int64(wait)/2+1)) - wait/4
		if backoff *= 2; backoff > p.BackoffMax {
			backoff = p.BackoffMax
		}
		if time.Now().Add(wait).After(deadline) {
			return nil, err
		}
		st.BackoffNs += int64(wait)
		time.Sleep(wait)
	}
}

// ReconnectConfig shapes a ResilientSession.
type ReconnectConfig struct {
	// Addr and Hello are what every (re)dial presents; the hello's
	// ResumeLSN is overwritten on each redial with the client's current
	// durable position.
	Addr  string
	Hello Hello

	// Dial tunes each underlying connection (timeouts, window).
	Dial DialConfig

	// Retry shapes the first dial and, with NetErrors set, each outage:
	// once a live connection breaks, the session redials under this
	// policy, and only when the budget is exhausted does the failure
	// surface (as server.ErrServerDown, so transport.Link parks frames
	// instead of dropping them). Without NetErrors a broken connection
	// surfaces as server.ErrServerDown immediately.
	Retry RetryPolicy
}

// ResilientStats snapshots a ResilientSession's ledger.
type ResilientStats struct {
	Reconnects   int64  // successful re-handshakes after a live conn broke
	DialAttempts int64  // total dials, including the first and failed ones
	Refusals     int64  // vSE1 refusals honored
	BackoffNs    int64  // total time slept in dial backoff
	Resumed      int64  // queued envelopes skipped because the resume LSN proved them processed
	Outages      int64  // operations that found the connection gone and the outage budget spent
	LSN          uint64 // client's belief of the tenant's durable LSN
}

// ResilientSession is the client side of a run's network session and a
// transport.Medium. It dials with vSE1 retry-after hints honored and, with
// Retry.NetErrors, survives the network: it auto-redials on connection
// loss with exponential backoff + jitter and resumes delivery at the
// durable LSN carried by the vSA1 session ack, so a reconnect neither
// loses nor duplicates journaled envelopes.
//
// The resume algorithm rides the dense-LSN contract of the durable
// server: every delivered envelope (frame ingest, dup, reject, heartbeat)
// journals exactly one outcome, so the tenant's LSN counts delivered
// envelopes. The session keeps copies of sent-but-unanswered envelopes in
// order; on reconnect, the fresh session ack's LSN minus the client's
// last-acked position says exactly how many of those the server processed
// before the wire died — that prefix is dropped (already journaled), the
// rest is retransmitted in order. Against a non-durable tenant the ack
// LSN is always 0, so everything unanswered is retransmitted and the
// server's sequence dedup absorbs the overlap: at-least-once there,
// exactly-once when durability is on.
//
// When an outage outlives the retry budget, operations fail with
// server.ErrServerDown — the same error a crashed tenant returns — so the
// transport.Link machinery parks frames and packed-flushes them when the
// world comes back.
type ResilientSession struct {
	mu   sync.Mutex
	cfg  ReconnectConfig
	rng  *rand.Rand // backoff jitter, seeded from cfg.Retry.Seed
	sess *session

	lsn     uint64   // belief: tenant's durable LSN after all answered envelopes
	pend    [][]byte // sent-but-unanswered envelope copies, oldest first
	sent    int      // prefix of pend transmitted on the live conn
	ackErr  error    // first non-OK status since the last report
	ever    bool     // a connection has succeeded at least once
	lastAck SessionAck

	free  [][]byte // recycled pend copies (see push)
	stats ResilientStats
}

// DialResilient dials the first connection eagerly (so configuration
// errors and permanent refusals surface immediately) and returns the
// session; cfg.Retry.NetErrors decides whether it self-heals.
func DialResilient(cfg ReconnectConfig) (*ResilientSession, error) {
	cfg.Dial.fillDefaults()
	cfg.Retry.fillDefaults()
	r := &ResilientSession{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Retry.Seed ^ 0x72656469616c))}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.redialLocked(time.Now().Add(cfg.Retry.MaxElapsed)); err != nil {
		return nil, err
	}
	return r, nil
}

// Ack returns the most recent vSA1 session ack (the latest successful
// handshake's flags and durable LSN).
func (r *ResilientSession) Ack() SessionAck {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastAck
}

// Stats snapshots the reconnect ledger.
func (r *ResilientSession) Stats() ResilientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.LSN = r.lsn
	return st
}

// ResyncLSN overrides the client's durable-position belief. A crash
// harness calls this after recovering a tenant whose WAL tail was lost:
// acked-but-unsynced outcomes vanished, so the belief must rewind to the
// recovered LSN before re-driving the schedule (mirroring what any
// checkpoint-resuming producer does).
func (r *ResilientSession) ResyncLSN(lsn uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lsn = lsn
}

// onAck observes every ack in arrival order. It runs on the calling
// goroutine, inside a session operation, while r.mu is held by that same
// caller — the oldest unanswered envelope is the one being answered.
func (r *ResilientSession) onAck(status byte) {
	if len(r.pend) > 0 {
		head := r.pend[0]
		r.pend = r.pend[1:]
		if len(r.pend) == 0 {
			r.pend = nil // release the backing array
		}
		if r.sent > 0 {
			r.sent--
		}
		// The envelope was fully written before its ack arrived, so its
		// copy can be recycled into the next push.
		if len(r.free) < pendFreeMax {
			r.free = append(r.free, head)
		}
	}
	switch status {
	case frameAckOK:
		r.lsn++
	case frameAckReject:
		r.lsn++ // a reject is journaled too (dense LSN)
		if r.ackErr == nil {
			r.ackErr = ErrFrameRejected
		}
	case frameAckDown:
		// Not journaled: the tenant was between Crash and Recover.
		if r.ackErr == nil {
			r.ackErr = server.ErrServerDown
		}
	}
}

// redialLocked establishes a fresh connection within the deadline and
// reconciles the unanswered queue against the server's durable position.
func (r *ResilientSession) redialLocked(deadline time.Time) error {
	h := r.cfg.Hello
	h.ResumeLSN = r.lsn
	s, err := r.dialLocked(h, deadline)
	if err != nil {
		r.stats.Outages++
		return err
	}
	s.ackHook = r.onAck
	r.sess = s
	r.lastAck = s.Ack()
	if r.ever {
		r.stats.Reconnects++
	}
	r.ever = true
	// Reconcile: the ack's LSN is the server's truth. Anything it has
	// journaled beyond our belief must be the oldest unanswered envelopes,
	// delivered in order before the previous wire died — drop them instead
	// of re-sending. A *lower* LSN (crash truncation, or a non-durable
	// tenant's flat 0) means re-send everything unanswered and let
	// sequence dedup absorb any overlap.
	if processed := r.lastAck.LSN - r.lsn; r.lastAck.LSN > r.lsn {
		if processed > uint64(len(r.pend)) {
			processed = uint64(len(r.pend))
		}
		r.pend = r.pend[processed:]
		r.stats.Resumed += int64(processed)
	}
	r.lsn = r.lastAck.LSN
	r.sent = 0
	return nil
}

// dropSessLocked abandons a broken connection.
func (r *ResilientSession) dropSessLocked() {
	if r.sess != nil {
		_ = r.sess.Close()
		r.sess = nil
	}
	r.sent = 0
}

// transmitLocked pushes untransmitted queued envelopes onto the live
// session, optionally draining all outstanding acks. Ack arrivals pop the
// queue via onAck as a side effect of the session calls.
func (r *ResilientSession) transmitLocked(drain bool) error {
	s := r.sess
	for r.sent < len(r.pend) {
		next := r.pend[r.sent]
		if err := s.SendAsync(next); err != nil {
			return err
		}
		r.sent++
	}
	if drain {
		return s.Drain()
	}
	return nil
}

// opLocked is the self-healing core: keep a connection alive, transmit
// the queue, and on transport failure redial-and-retransmit until the
// per-outage budget is gone. Protocol-level statuses (reject/down) are
// captured by onAck and surfaced; they never trigger a redial.
func (r *ResilientSession) opLocked(drain bool) error {
	// The outage deadline is read lazily: a healthy session never pays
	// for the clock, and the budget spans this operation's redials only.
	var deadline time.Time
	for {
		if r.sess == nil {
			if !r.cfg.Retry.NetErrors {
				// Zero outage budget: a broken connection is final.
				r.stats.Outages++
				return server.ErrServerDown
			}
			if deadline.IsZero() {
				deadline = time.Now().Add(r.cfg.Retry.MaxElapsed)
			}
			if err := r.redialLocked(deadline); err != nil {
				return server.ErrServerDown
			}
		}
		err := r.transmitLocked(drain)
		if err != nil && r.sess.Broken() != nil {
			r.dropSessLocked()
			continue
		}
		e := r.ackErr
		r.ackErr = nil
		return e
	}
}

// pendFreeMax bounds the recycled-buffer stack fed by acked queue
// entries. It must cover a full pipeline window (acks arrive in bursts
// that pop up to Window entries at once) or the steady state degenerates
// to allocating on most pushes.
const pendFreeMax = 320

// push copies one frame into the unanswered queue (the copy is what gets
// retransmitted after a reconnect — the caller may reuse its buffer).
// Acked entries' buffers are recycled to keep the steady-state path to
// one memcpy with no allocation.
func (r *ResilientSession) push(encoded []byte) []byte {
	var cp []byte
	if n := len(r.free); n > 0 && cap(r.free[n-1]) >= len(encoded) {
		cp = append(r.free[n-1][:0], encoded...)
		r.free = r.free[:n-1]
	} else {
		cp = append([]byte(nil), encoded...)
	}
	r.pend = append(r.pend, cp)
	return cp
}

// unpush removes the caller's own entry after a failed synchronous
// operation, so the caller's retry does not double-queue it. The entry is
// the queue tail iff no ack or resume already consumed it.
func (r *ResilientSession) unpush(cp []byte) {
	if n := len(r.pend); n > 0 && len(cp) > 0 {
		tail := r.pend[n-1]
		if len(tail) == len(cp) && &tail[0] == &cp[0] {
			r.pend = r.pend[:n-1]
			if r.sent > n-1 {
				r.sent = n - 1
			}
		}
	}
}

// Receive sends one encoded vS* frame and waits for its ack, redialing
// through connection failures — the transport.Medium contract. The
// outcome is exact: nil or ErrFrameRejected means the envelope was
// delivered and journaled exactly once (possibly proven by the resume
// LSN rather than an explicit ack); server.ErrServerDown means it was
// not delivered and the caller owns the retry — the frame is not left
// queued.
func (r *ResilientSession) Receive(encoded []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ackErr = nil
	cp := r.push(encoded)
	err := r.opLocked(true)
	if err != nil && !errors.Is(err, ErrFrameRejected) {
		r.unpush(cp)
	}
	return err
}

// SendAsync queues one frame on the pipelined path without waiting for
// its ack; protocol-level failures surface on a later call or on Drain.
// Unlike Receive, a reported outage does NOT unqueue the frame: an async
// frame may already be in flight when the error belongs to an older one,
// so abandoning it would corrupt the in-order ledger. The queue is
// retransmitted by the next operation once the server is back.
func (r *ResilientSession) SendAsync(encoded []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.push(encoded)
	return r.opLocked(false)
}

// Drain retransmits anything unanswered and consumes every outstanding
// ack, reporting the first failure the pipeline saw since the last
// report.
func (r *ResilientSession) Drain() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opLocked(true)
}

// Close tears down the live connection (after a best-effort drain) and
// stops reconnecting.
func (r *ResilientSession) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess == nil {
		return nil
	}
	_ = r.transmitLocked(true)
	err := r.sess.Close()
	r.sess = nil
	return err
}
