package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"netloc/internal/core"
	"netloc/internal/service"
)

// TestRunServesAndShutsDown boots the daemon on an ephemeral port, hits
// the liveness and experiment endpoints, and verifies cancellation shuts
// the server down cleanly.
func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := make(chan string, 1)
	done := make(chan error, 1)
	opts := service.Options{Analysis: core.Options{MaxRanks: 64}}
	go func() {
		done <- run(ctx, "127.0.0.1:0", opts, true, func(addr string, eff service.Options) {
			if eff.CacheEntries == 0 || eff.Workers == 0 {
				t.Errorf("ready called with unresolved defaults: %+v", eff)
			}
			bound <- addr
		})
	}()

	var addr string
	select {
	case addr = <-bound:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never came up")
	}

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	if body := get("/healthz"); !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz body: %s", body)
	}
	if body := get("/v1/experiments/table2?maxranks=64"); !strings.Contains(body, `"table2"`) {
		t.Errorf("table2 body: %s", body)
	}
	// debug=true mounts the pprof index next to the service routes.
	if body := get("/debug/pprof/"); !strings.Contains(body, "pprof") {
		t.Errorf("pprof index body: %.80s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never shut down")
	}
}

func TestRunBadAddress(t *testing.T) {
	if err := run(context.Background(), "256.0.0.1:bad", service.Options{}, false, nil); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestRunCutsOffStalledHeaders opens a connection that sends part of a
// request line and then stalls: the server must close it once
// readHeaderTimeout passes instead of holding it open.
func TestRunCutsOffStalledHeaders(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), readHeaderTimeout+20*time.Second)
	defer cancel()
	srvCtx, stop := context.WithCancel(ctx)
	defer stop()
	bound := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(srvCtx, "127.0.0.1:0", service.Options{}, false, func(addr string, _ service.Options) { bound <- addr })
	}()
	var addr string
	select {
	case addr = <-bound:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-ctx.Done():
		t.Fatal("server never came up")
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline, _ := ctx.Deadline()
	conn.SetDeadline(deadline)
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: netloc\r\n"); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled header connection still open after %v", elapsed)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}

	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("server never shut down")
	}
}
