package memo

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// stored reports whether key is in g's store without touching recency.
func stored(g *Group[string, []byte], key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.items[key]
	return ok
}

// value returns a generator that yields s.
func value(s string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(s), nil }
}

// wait blocks until wg is done, failing the test if ctx expires first:
// a wedged key then fails fast instead of eating the test timeout.
func wait(ctx context.Context, t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("callers still blocked at the deadline: wedged key")
	}
}

func TestLRUCacheEvicts(t *testing.T) {
	g := New[string, []byte](2)
	g.Do("a", value("1"))
	g.Do("b", value("2"))
	if _, d, _ := g.Do("a", value("x")); d != Hit { // refresh a; b becomes the oldest
		t.Fatal("a missing")
	}
	g.Do("c", value("3"))
	if stored(g, "b") {
		t.Error("b should have been evicted")
	}
	if !stored(g, "a") {
		t.Error("a should have survived (recently used)")
	}
	if s := g.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Errorf("len = %d evictions = %d", s.Entries, s.Evictions)
	}
	// Values enter only through a generation: re-requesting a stored key
	// serves the stored value and keeps len stable.
	if v, d, _ := g.Do("c", value("33")); string(v) != "3" || d != Hit {
		t.Errorf("c = %q (disposition %d)", v, d)
	}
	if s := g.Stats(); s.Entries != 2 {
		t.Errorf("len = %d after re-request", s.Entries)
	}
}

func TestSingleflightSharesResult(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g := New[string, []byte](4)
	release := make(chan struct{})
	started := make(chan struct{})
	executions := 0
	var wg sync.WaitGroup
	results := make([][]byte, 2)
	shareds := make([]bool, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 1 {
				<-started // ensure goroutine 0 is the leader
			}
			v, d, err := g.Do("k", func() ([]byte, error) {
				executions++
				close(started)
				<-release
				return []byte("v"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shareds[i] = v, d == Dedup
		}(i)
	}
	go func() {
		<-started
		time.Sleep(10 * time.Millisecond) // let the follower block on the leader
		close(release)
	}()
	wait(ctx, t, &wg)
	if executions != 1 {
		t.Errorf("executions = %d, want 1", executions)
	}
	if string(results[0]) != "v" || string(results[1]) != "v" {
		t.Errorf("results = %q, %q", results[0], results[1])
	}
	if !shareds[0] && !shareds[1] {
		t.Error("neither caller saw a shared result")
	}
}

func TestSingleflightPanicReleasesWaiters(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Regression: a panicking fn used to leave the in-flight entry
	// registered with its WaitGroup never done, so every later caller
	// for the key blocked forever. The panic must surface as an error
	// and the key must become computable again.
	g := New[string, []byte](4)
	v, d, err := g.Do("k", func() ([]byte, error) {
		panic("kaboom")
	})
	if v != nil || d == Dedup {
		t.Fatalf("panicking call returned v=%q shared=%v", v, d == Dedup)
	}
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic converted to error", err)
	}

	// The key must not be poisoned: a fresh call runs and succeeds
	// without blocking.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := g.Do("k", value("ok"))
		if err != nil || string(v) != "ok" {
			t.Errorf("post-panic Do = %q, %v", v, err)
		}
	}()
	wait(ctx, t, &wg)
}

func TestSingleflightPanicSharedByWaiters(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g := New[string, []byte](4)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var followerErr error
	go func() {
		defer wg.Done()
		<-started
		_, _, followerErr = g.Do("k", func() ([]byte, error) { return nil, nil })
	}()
	go func() {
		<-started
		time.Sleep(10 * time.Millisecond) // let the follower join the flight
		close(release)
	}()
	_, _, leaderErr := g.Do("k", func() ([]byte, error) {
		close(started)
		<-release
		panic("shared kaboom")
	})
	wait(ctx, t, &wg)
	if leaderErr == nil {
		t.Fatal("leader saw no error")
	}
	// The follower either joined the panicking flight (shares its
	// error) or arrived after cleanup and computed fresh (nil error);
	// both are fine — what it must never do is hang, which the deadline
	// above would have exposed.
	if followerErr != nil && !strings.Contains(followerErr.Error(), "kaboom") {
		t.Errorf("follower err = %v", followerErr)
	}
}

// TestGroupDispositionsAndStats pins the disposition Do reports and the
// counters Stats keeps for a miss, a hit, a dedup, an error that is not
// stored, and an eviction.
func TestGroupDispositionsAndStats(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g := New[string, []byte](2)
	mustNotRun := func() ([]byte, error) {
		t.Error("generator ran for a stored or in-flight key")
		return nil, nil
	}
	check := func(what string, v []byte, d Disposition, err error, wantV string, wantD Disposition) {
		t.Helper()
		if err != nil || string(v) != wantV || d != wantD {
			t.Errorf("%s = (%q, %d, %v), want (%q, %d, nil)", what, v, d, err, wantV, wantD)
		}
	}

	v, d, err := g.Do("a", value("1"))
	check("first a", v, d, err, "1", Miss)
	v, d, err = g.Do("a", mustNotRun)
	check("second a", v, d, err, "1", Hit)

	// Dedup: the follower joins while the leader's generation is held
	// open; the leader is released only once the join is counted.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		v, d, err := g.Do("b", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("2"), nil
		})
		check("leader b", v, d, err, "2", Miss)
	}()
	<-started
	go func() {
		defer wg.Done()
		v, d, err := g.Do("b", mustNotRun)
		check("follower b", v, d, err, "2", Dedup)
	}()
	for g.Stats().Dedups == 0 {
		select {
		case <-ctx.Done():
			close(release)
			t.Fatal("follower never joined the in-flight generation")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wait(ctx, t, &wg)

	// An error reaches the caller but is never stored: the retry runs.
	boom := errors.New("boom")
	if _, d, err := g.Do("c", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) || d != Miss {
		t.Fatalf("failing c = (%d, %v), want (miss, %v)", d, err, boom)
	}
	if stored(g, "c") {
		t.Fatal("an error was stored")
	}
	// The retry stores c past the bound of 2 and evicts a, the oldest.
	v, d, err = g.Do("c", value("3"))
	check("retried c", v, d, err, "3", Miss)
	if stored(g, "a") || !stored(g, "b") {
		t.Error("eviction did not drop the least recently used key a")
	}

	want := Stats{Hits: 1, Misses: 4, Dedups: 1, Evictions: 1, Entries: 2}
	if s := g.Stats(); s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}
