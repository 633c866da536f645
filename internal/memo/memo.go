// Package memo is the memoization primitive shared by netloc's caches:
// a bounded LRU store fused with singleflight miss deduplication.
//
// Group.Do serves a key from the store when it can; otherwise exactly
// one caller (the leader) runs the generator while concurrent callers
// for the same key wait and share its result. A generator's panic
// becomes one error shared by the leader and its waiters, the in-flight
// slot is always cleared so a key never wedges, and errors are never
// stored: the next call retries.
package memo

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Disposition reports how Do served one call.
type Disposition int

const (
	// Miss: no value was stored and no generation was in flight, so this
	// caller ran the generator.
	Miss Disposition = iota
	// Hit: the value was served from the store.
	Hit
	// Dedup: this caller waited on a concurrent caller's generation and
	// shares its value or error.
	Dedup
)

// Stats is a point-in-time snapshot of a Group's counters. Misses count
// generator runs (failed ones included); Dedups count callers that
// joined an in-flight generation.
type Stats struct {
	Hits      int64
	Misses    int64
	Dedups    int64
	Evictions int64
	Entries   int
}

// Group memoizes values by key in a bounded LRU store. The zero value
// is not usable; use New.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
	calls map[K]*call[V]

	hits      atomic.Int64
	misses    atomic.Int64
	dedups    atomic.Int64
	evictions atomic.Int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// call is one in-flight generation; waiters block on wg.
type call[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// New creates a Group storing at most max values. Defaults and clamps
// belong to the caller.
func New[K comparable, V any](max int) *Group[K, V] {
	return &Group[K, V]{
		max:   max,
		ll:    list.New(),
		items: make(map[K]*list.Element),
		calls: make(map[K]*call[V]),
	}
}

// Do returns the value for key, running fn on a miss. The store lookup
// and the in-flight registration happen under one lock, and the leader
// stores its value and clears its slot under the same lock, so a caller
// either finds the stored value (Hit), joins the running generation
// (Dedup), or becomes the only caller running fn (Miss) — never a
// second, duplicate generation.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (V, Disposition, error) {
	g.mu.Lock()
	if el, ok := g.items[key]; ok {
		g.ll.MoveToFront(el)
		v := el.Value.(*entry[K, V]).val
		g.mu.Unlock()
		g.hits.Add(1)
		return v, Hit, nil
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		g.dedups.Add(1)
		c.wg.Wait()
		return c.val, Dedup, c.err
	}
	c := new(call[V])
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()
	g.misses.Add(1)
	g.run(key, c, fn)
	return c.val, Miss, c.err
}

// run executes the leader's generation. The deferred epilogue stores a
// successful value, clears the in-flight slot and releases the waiters
// on every path, a panicking fn included: skipping it would leave every
// later caller for the key blocked forever.
func (g *Group[K, V]) run(key K, c *call[V], fn func() (V, error)) {
	ok := false
	defer func() {
		g.mu.Lock()
		if ok {
			g.add(key, c.val)
		}
		delete(g.calls, key)
		g.mu.Unlock()
		c.wg.Done()
	}()
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("memo: panic in generator: %v", r)
		}
	}()
	c.val, c.err = fn()
	ok = c.err == nil
}

// add stores a value for a key that is absent (a flight owned it),
// evicting the least recently used entry past the bound. g.mu is held.
func (g *Group[K, V]) add(key K, v V) {
	g.items[key] = g.ll.PushFront(&entry[K, V]{key: key, val: v})
	if g.ll.Len() > g.max {
		oldest := g.ll.Back()
		g.ll.Remove(oldest)
		delete(g.items, oldest.Value.(*entry[K, V]).key)
		g.evictions.Add(1)
	}
}

// Stats returns the current counters.
func (g *Group[K, V]) Stats() Stats {
	g.mu.Lock()
	entries := g.ll.Len()
	g.mu.Unlock()
	return Stats{
		Hits:      g.hits.Load(),
		Misses:    g.misses.Load(),
		Dedups:    g.dedups.Load(),
		Evictions: g.evictions.Load(),
		Entries:   entries,
	}
}
