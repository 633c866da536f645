package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"netloc/internal/trace"
)

// Regression: a 27-byte upload whose header claims 2^22 ranks and carries
// no events passed the decoder, and the analysis then sized its world
// communicator and matrices by that claim (432 MB) before the topology
// stage rejected the rank count. The rejection now comes first.
func TestTraceAnalyzeHostileRankCountBoundsAllocation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Meta{App: "x", Ranks: 2, WallTime: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) != 27 {
		t.Fatalf("header is %d bytes, want 27", len(raw))
	}
	// The rank count follows the magic, the app-name length and the
	// one-byte app name.
	binary.LittleEndian.PutUint32(raw[7:11], 1<<22)

	s := New(Options{Workers: 1})
	type result struct {
		status int
		alloc  uint64
	}
	done := make(chan result, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/traces/analyze", bytes.NewReader(raw))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		done <- result{rec.Code, after.TotalAlloc - before.TotalAlloc}
	}()
	select {
	case <-ctx.Done():
		t.Fatal("the upload was not answered before the deadline")
	case r := <-done:
		if r.status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", r.status)
		}
		if r.alloc >= 16<<20 {
			t.Fatalf("analyzing a 27-byte upload allocated %d bytes (want < 16 MiB)", r.alloc)
		}
	}
}

// signalReader closes read on its first Read, so a test can tell whether
// a handler has started consuming a request body.
type signalReader struct {
	r    io.Reader
	read chan struct{}
	once bool
}

func (s *signalReader) Read(p []byte) (int, error) {
	if !s.once {
		s.once = true
		close(s.read)
	}
	return s.r.Read(p)
}

// uploadPaths are the endpoints whose body is a trace upload; both read it
// through the same admitted-upload path.
var uploadPaths = map[string]string{"analyze": "/v1/traces/analyze", "design": "/v1/design/trace"}

// An upload must be admitted before its body is parsed: with every token
// taken the handler waits without reading a byte, and reads and answers
// once a token frees.
func TestTraceAnalyzeAdmitsBeforeReadingBody(t *testing.T) {
	for name, path := range uploadPaths {
		t.Run(name, func(t *testing.T) { testAdmitsBeforeReadingBody(t, path) })
	}
}

func testAdmitsBeforeReadingBody(t *testing.T, path string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tr := &trace.Trace{
		Meta:   trace.Meta{App: "uploaded", Ranks: 8, WallTime: 1},
		Events: []trace.Event{{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 5000}},
	}
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1})
	s.budget.Acquire() // exhaust the pool

	body := &signalReader{r: &buf, read: make(chan struct{})}
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	}()
	select {
	case <-body.read:
		t.Fatal("the body was read while no token was free")
	case <-done:
		t.Fatal("the upload was answered while no token was free")
	case <-time.After(200 * time.Millisecond):
	}
	s.budget.Release()
	select {
	case <-ctx.Done():
		t.Fatal("the upload was not answered after a token freed")
	case <-done:
	}
	select {
	case <-body.read:
	default:
		t.Fatal("the upload was answered without reading its body")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := s.budget.InUse(); got != 0 {
		t.Fatalf("%d tokens still held after the upload", got)
	}
}

// An admitted upload holds a worker token only while its body arrives
// within uploadRead. A client that sends its headers and part of a body
// and then stalls is answered 400 once the deadline passes, and the
// token returns to the pool; time spent queued for admission does not
// count against the deadline.
func TestTraceAnalyzeStalledBodyReleasesToken(t *testing.T) {
	for name, path := range uploadPaths {
		t.Run(name, func(t *testing.T) { testStalledBodyReleasesToken(t, path) })
	}
}

func testStalledBodyReleasesToken(t *testing.T, path string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tr := &trace.Trace{
		Meta:   trace.Meta{App: "uploaded", Ranks: 8, WallTime: 1},
		Events: []trace.Event{{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 5000}},
	}
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	s := New(Options{Workers: 1})
	s.uploadRead = 200 * time.Millisecond
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	deadline, _ := ctx.Deadline()

	// post sends the request headers and the first n body bytes, then
	// reads the response without sending the rest.
	post := func(n int) chan int {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(deadline)
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: netloc\r\nContent-Length: %d\r\n\r\n", path, len(full))
		conn.Write(full[:n])
		status := make(chan int, 1)
		go func() {
			defer conn.Close()
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				status <- 0
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		return status
	}

	// A stalled body is cut off and its token freed.
	select {
	case <-ctx.Done():
		t.Fatal("the stalled upload was not answered before the deadline")
	case code := <-post(10):
		if code != http.StatusBadRequest {
			t.Fatalf("stalled upload: status %d, want 400", code)
		}
	}
	if got := s.budget.InUse(); got != 0 {
		t.Fatalf("%d tokens still held after the stalled upload", got)
	}

	// A complete body that waited longer than uploadRead for its token
	// is still read and analyzed.
	s.budget.Acquire()
	status := post(len(full))
	time.Sleep(2 * s.uploadRead)
	s.budget.Release()
	select {
	case <-ctx.Done():
		t.Fatal("the queued upload was not answered after a token freed")
	case code := <-status:
		if code != http.StatusOK {
			t.Fatalf("queued upload: status %d, want 200", code)
		}
	}
	if got := s.budget.InUse(); got != 0 {
		t.Fatalf("%d tokens still held after the queued upload", got)
	}
}
