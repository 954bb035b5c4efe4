package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reportHarness is a mutable synthetic provider: tests advance the
// generation (and optionally the record log) and the handler must track it
// through the ETag/cursor protocol.
type reportHarness struct {
	cur    atomic.Pointer[ReportSnapshot]
	mu     sync.Mutex
	wakeup chan struct{} // closed by advance(); wait() parks on it
}

func (h *reportHarness) wakeChan() chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.wakeup == nil {
		h.wakeup = make(chan struct{})
	}
	return h.wakeup
}

func (h *reportHarness) snapshot(gen uint64, log []int, base int) *ReportSnapshot {
	return &ReportSnapshot{
		Gen:      gen,
		Status:   map[string]any{"gen": gen, "records": len(log)},
		Outliers: map[string]any{"gen": gen, "outliers": []string{"s0"}},
		Records: func(cursor int) (any, int, int, bool) {
			if cursor < base || cursor > base+len(log) {
				return []int{}, 0, base, false
			}
			return log[cursor-base:], base + len(log), base, true
		},
	}
}

func (h *reportHarness) advance(gen uint64, log []int, base int) {
	h.cur.Store(h.snapshot(gen, log, base))
	h.mu.Lock()
	if h.wakeup != nil {
		close(h.wakeup)
		h.wakeup = nil
	}
	h.mu.Unlock()
}

func (h *reportHarness) wire(o *Obs) {
	o.SetReport(
		func() *ReportSnapshot { return h.cur.Load() },
		func(afterGen uint64, timeout time.Duration) *ReportSnapshot {
			wake := h.wakeChan()
			if sn := h.cur.Load(); sn != nil && sn.Gen > afterGen {
				return sn
			}
			select {
			case <-wake:
				return h.cur.Load()
			case <-time.After(timeout):
				return nil
			}
		},
	)
}

func getINM(t *testing.T, srv *httptest.Server, path, inm string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest("GET", srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestStatusETagRevalidation pins the conditional-GET contract on /status:
// a poll returns a strong ETag, revalidating with it costs a 304 with no
// body, a generation advance invalidates the tag, and two unconditional
// polls at the same generation are byte-identical (shared render).
func TestStatusETagRevalidation(t *testing.T) {
	o := New()
	h := &reportHarness{}
	h.advance(3, []int{1, 2}, 0)
	h.wire(o)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	code, body1, hdr := getINM(t, srv, "/status", "")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	tag := hdr.Get("ETag")
	if tag != `"3"` {
		t.Fatalf("ETag = %q, want %q", tag, `"3"`)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(body1), &st); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if st["running"] != true || st["gen"] != float64(3) {
		t.Fatalf("body = %v", st)
	}

	// Same generation: byte-identical body, and a revalidation is free.
	_, body2, _ := getINM(t, srv, "/status", "")
	if body1 != body2 {
		t.Fatalf("same-generation bodies differ:\n%s\n%s", body1, body2)
	}
	code, body3, hdr := getINM(t, srv, "/status", tag)
	if code != http.StatusNotModified || body3 != "" {
		t.Fatalf("revalidation = %d %q, want 304 with empty body", code, body3)
	}
	if hdr.Get("ETag") != tag {
		t.Fatalf("304 ETag = %q, want %q", hdr.Get("ETag"), tag)
	}
	// Weak and list forms match too.
	if code, _, _ := getINM(t, srv, "/status", `W/"3"`); code != http.StatusNotModified {
		t.Errorf("weak revalidation = %d", code)
	}
	if code, _, _ := getINM(t, srv, "/status", `"1", "3"`); code != http.StatusNotModified {
		t.Errorf("list revalidation = %d", code)
	}

	// Generation advance: stale tag now misses.
	h.advance(4, []int{1, 2, 3}, 0)
	code, body4, hdr := getINM(t, srv, "/status", tag)
	if code != http.StatusOK || hdr.Get("ETag") != `"4"` {
		t.Fatalf("post-advance = %d ETag %q", code, hdr.Get("ETag"))
	}
	if body4 == body1 {
		t.Fatal("new generation served the old body")
	}
}

// TestOutliersEndpoint covers the /outliers surface: disabled without a
// report provider, full conditional protocol with one.
func TestOutliersEndpoint(t *testing.T) {
	o := New()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	code, body, _ := getINM(t, srv, "/outliers", "")
	if code != http.StatusOK || !strings.Contains(body, `"enabled":false`) {
		t.Fatalf("unwired /outliers = %d %s", code, body)
	}

	h := &reportHarness{}
	h.advance(9, nil, 0)
	h.wire(o)
	code, body, hdr := getINM(t, srv, "/outliers", "")
	if code != http.StatusOK || hdr.Get("ETag") != `"9"` {
		t.Fatalf("/outliers = %d ETag %q", code, hdr.Get("ETag"))
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if out["gen"] != float64(9) {
		t.Fatalf("outliers body = %v", out)
	}
	if code, b, _ := getINM(t, srv, "/outliers", `"9"`); code != http.StatusNotModified || b != "" {
		t.Fatalf("revalidation = %d %q", code, b)
	}
}

// TestRecordsSnapshotWindow pins the /records regression this PR fixes: an
// out-of-range cursor must answer with an explicit truncation pointing at
// the window base — never a silently clamped window — and a negative
// cursor is a client error.
func TestRecordsSnapshotWindow(t *testing.T) {
	o := New()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	// No report provider yet: an empty window, not an error.
	if code, body, _ := getINM(t, srv, "/records?cursor=5", ""); code != http.StatusOK || !strings.Contains(body, `"records":[]`) {
		t.Fatalf("unwired records = %d %s", code, body)
	}

	h := &reportHarness{}
	h.advance(2, []int{7, 8, 9}, 0)
	h.wire(o)

	type resp struct {
		Cursor    int   `json:"cursor"`
		Base      int   `json:"base"`
		Truncated bool  `json:"truncated"`
		Records   []int `json:"records"`
	}
	poll := func(q string) (int, resp) {
		t.Helper()
		code, body, _ := getINM(t, srv, "/records"+q, "")
		var r resp
		if code == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &r); err != nil {
				t.Fatalf("invalid JSON: %v\n%s", err, body)
			}
		}
		return code, r
	}

	// In-range walk: exactly-once, base always present.
	code, r := poll("")
	if code != 200 || len(r.Records) != 3 || r.Cursor != 3 || r.Base != 0 || r.Truncated {
		t.Fatalf("full window = %d %+v", code, r)
	}
	code, r = poll("?cursor=3")
	if code != 200 || len(r.Records) != 0 || r.Cursor != 3 {
		t.Fatalf("caught-up = %d %+v", code, r)
	}

	// Past the end (the log shrank, e.g. across a crash recovery): explicit
	// truncation with the base to restart from, not a clamp.
	h.advance(3, []int{7}, 0)
	code, r = poll("?cursor=3")
	if code != 200 || !r.Truncated || r.Cursor != 0 || r.Base != 0 || len(r.Records) != 0 {
		t.Fatalf("stale cursor = %d %+v, want explicit truncation to base", code, r)
	}
	// Restarting from the returned base succeeds.
	code, r = poll("?cursor=0")
	if code != 200 || r.Truncated || len(r.Records) != 1 || r.Records[0] != 7 {
		t.Fatalf("restart = %d %+v", code, r)
	}

	// Negative cursor: 400, not a clamp to zero.
	if code, _ := poll("?cursor=-1"); code != http.StatusBadRequest {
		t.Fatalf("negative cursor = %d, want 400", code)
	}
	// Unparsable: 400 (pre-existing behaviour, kept).
	if code, _ := poll("?cursor=zap"); code != http.StatusBadRequest {
		t.Fatalf("unparsable cursor = %d, want 400", code)
	}

	// Non-zero base after recovery: a cursor below base is truncated too.
	h.advance(4, []int{5, 6}, 10)
	code, r = poll("?cursor=3")
	if code != 200 || !r.Truncated || r.Cursor != 10 || r.Base != 10 {
		t.Fatalf("below-base cursor = %d %+v, want truncation to base 10", code, r)
	}
	code, r = poll("?cursor=10")
	if code != 200 || r.Truncated || len(r.Records) != 2 || r.Cursor != 12 {
		t.Fatalf("at-base = %d %+v", code, r)
	}
}

// TestLongPollStatus exercises ?wait=1: a request at the current generation
// parks and is released by the next advance; an idle one times out and
// re-serves the current generation as a 304.
func TestLongPollStatus(t *testing.T) {
	o := New()
	h := &reportHarness{}
	h.advance(5, nil, 0)
	h.wire(o)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	// Wake path: park at gen 5, advance to 6 mid-poll.
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, _, hdr := getINM(t, srv, "/status?wait=1&timeout_ms=5000", `"5"`)
		if code != http.StatusOK || hdr.Get("ETag") != `"6"` {
			t.Errorf("long-poll wake = %d ETag %q, want 200 %q", code, hdr.Get("ETag"), `"6"`)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	h.advance(6, nil, 0)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}

	// Timeout path: nothing advances, the poll answers 304 after the bound.
	start := time.Now()
	code, body, hdr := getINM(t, srv, "/status?wait=1&timeout_ms=50", `"6"`)
	if code != http.StatusNotModified || body != "" {
		t.Fatalf("long-poll timeout = %d %q, want 304", code, body)
	}
	if hdr.Get("ETag") != `"6"` {
		t.Fatalf("timeout ETag = %q", hdr.Get("ETag"))
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("timed-out poll returned after %v, want ≥ ~50ms park", elapsed)
	}

	// A mismatched tag never parks, even with wait=1.
	start = time.Now()
	if code, _, _ := getINM(t, srv, "/status?wait=1&timeout_ms=5000", `"1"`); code != http.StatusOK {
		t.Fatalf("stale-tag wait = %d, want immediate 200", code)
	}
	if time.Since(start) > time.Second {
		t.Fatal("stale-tag wait parked")
	}
}
