package simnet

import (
	"testing"

	"netloc/internal/trace"
	"netloc/internal/workloads"
)

// genTrace generates a synthetic workload trace for simulator tests.
func genTrace(t testing.TB, app string, ranks int) *trace.Trace {
	t.Helper()
	a, err := workloads.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := a.Generate(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
