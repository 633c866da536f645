// Package workcache provides the content-addressed workload artifact
// cache shared by the experiment drivers, the design sweep, and the
// analysis service.
//
// The paper's tables and figures sweep a (workload × scale × topology ×
// mapping) grid, but the expensive inputs — the generated synthetic trace,
// the accumulated communication matrices, and the built topologies —
// depend only on (app, ranks), (app, ranks, packet size, expansion
// strategy), and the topology's structural parameters respectively.
// Without a cache, every experiment re-derives them per cell; with one,
// the first run pays and every other experiment, design candidate, and
// service request above it shares the artifact.
//
// Cached values are shared read-only: traces and accumulated matrices are
// immutable after construction everywhere in the pipeline, and all
// derived analysis is exact integer or index-ordered arithmetic, so a
// cached artifact produces byte-identical reports to a fresh one. The
// scheduling-dependent Accumulated.Shards field is the one exception and
// is deliberately excluded from every report.
//
// Concurrency: the store is a memo.Group — a bounded LRU whose misses
// are deduplicated (a cold-start storm on one key runs one generation;
// the waiters share the result). A nil *Cache is valid and disables
// caching — every accessor just runs its generator.
package workcache

import (
	"fmt"
	"strings"

	"netloc/internal/comm"
	"netloc/internal/memo"
	"netloc/internal/mpi"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// DefaultMaxEntries bounds the artifact store when New is given a
// non-positive cap. Artifacts are per (app, ranks[, accumulate options])
// and the full experiment grid touches a few dozen, so 128 holds the
// entire paper sweep plus service traffic with room to spare.
const DefaultMaxEntries = 128

// TraceKey addresses a generated trace. Source names the generator kind
// ("gen" for the registry's configured scales, "genat" for extrapolated
// scales, "milc" for the design-only synthetic) so generators with
// different domains can never satisfy each other's lookups — a registry
// lookup must still fail at an unconfigured scale even when the design
// sweep cached an extrapolated trace there.
type TraceKey struct {
	Source string
	App    string
	Ranks  int
}

// SourceGenerate is the TraceKey source for registry App.Generate traces.
const SourceGenerate = "gen"

// SourceGenerateAt is the TraceKey source for extrapolated App.GenerateAt
// traces.
const SourceGenerateAt = "genat"

func (k TraceKey) id() string {
	return fmt.Sprintf("trace/%s/app=%s&ranks=%d", k.Source, strings.ToLower(k.App), k.Ranks)
}

// AccKey addresses an accumulated matrix pair. It extends the trace key
// with the two options that change matrix content; coverage, parallelism,
// budgets, and spans never do and must stay out.
type AccKey struct {
	Source     string
	App        string
	Ranks      int
	PacketSize int
	Strategy   mpi.Strategy
}

func (k AccKey) id() string {
	ps := k.PacketSize
	if ps <= 0 {
		ps = comm.DefaultPacketSize
	}
	return fmt.Sprintf("acc/%s/app=%s&ranks=%d&ps=%d&strategy=%d",
		k.Source, strings.ToLower(k.App), k.Ranks, ps, k.Strategy)
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
// Hits include singleflight waiters that shared another caller's
// generation; Misses count generations executed.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// Cache is the bounded artifact store. The zero value is not usable; use
// New. A nil *Cache disables caching.
type Cache struct {
	g *memo.Group[string, any]
}

// New creates a cache bounded to max artifacts (DefaultMaxEntries when
// max <= 0).
func New(max int) *Cache {
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Cache{g: memo.New[string, any](max)}
}

// Trace returns the cached trace for k, running gen exactly once across
// concurrent callers on a miss. Errors are returned to every concurrent
// waiter but are not stored: a later call retries. A nil cache calls gen
// directly.
func (c *Cache) Trace(k TraceKey, gen func() (*trace.Trace, error)) (*trace.Trace, error) {
	v, err := c.do(k.id(), func() (any, error) { return gen() })
	if err != nil {
		return nil, err
	}
	return v.(*trace.Trace), nil
}

// Accumulated returns the cached matrix pair for k, running gen exactly
// once across concurrent callers on a miss. A nil cache calls gen
// directly.
func (c *Cache) Accumulated(k AccKey, gen func() (*comm.Accumulated, error)) (*comm.Accumulated, error) {
	v, err := c.do(k.id(), func() (any, error) { return gen() })
	if err != nil {
		return nil, err
	}
	return v.(*comm.Accumulated), nil
}

// topoID keys a built topology by its structural parameters only: Build
// ignores Config.Size and Config.Nodes, and String() renders exactly the
// fields Build reads for each kind.
func topoID(cfg topology.Config) string {
	return "topo/" + cfg.Kind + cfg.String()
}

// Topology returns the cached built topology for cfg, building it
// exactly once across concurrent callers on a miss. Built topologies
// are immutable (routing tables are precomputed at construction and
// every Route variant takes a caller-owned buffer), so one instance is
// safe to share across concurrent analysis cells. A nil cache builds
// directly.
func (c *Cache) Topology(cfg topology.Config, gen func() (topology.Topology, error)) (topology.Topology, error) {
	v, err := c.do(topoID(cfg), func() (any, error) { return gen() })
	if err != nil {
		return nil, err
	}
	return v.(topology.Topology), nil
}

// Stats returns the current effectiveness counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := c.g.Stats()
	return Stats{
		Hits:      s.Hits + s.Dedups,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Entries:   s.Entries,
	}
}

func (c *Cache) do(id string, gen func() (any, error)) (any, error) {
	if c == nil {
		return gen()
	}
	v, _, err := c.g.Do(id, gen)
	return v, err
}
