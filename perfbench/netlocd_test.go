package main

import (
	"reflect"
	"testing"
)

func rounds(seed int64, n int) [][]request {
	s := newScheduler(seed, len(coldCombos()), len(hotPaths), len(uploadRefs))
	out := make([][]request, n)
	for i := range out {
		out[i] = s.round()
	}
	return out
}

func classCounts(reqs []request) map[string]int {
	c := map[string]int{}
	for _, r := range reqs {
		c[r.Class]++
	}
	return c
}

func TestScheduleIsSeeded(t *testing.T) {
	if !reflect.DeepEqual(rounds(7, 3), rounds(7, 3)) {
		t.Fatal("the same seed gave two different schedules")
	}
	a, b := rounds(7, 3), rounds(8, 3)
	combos := len(coldCombos())
	for r := range a {
		ca, cb := classCounts(a[r]), classCounts(b[r])
		if !reflect.DeepEqual(ca, cb) {
			t.Errorf("round %d: class mix %v under seed 7, %v under seed 8", r, ca, cb)
		}
		want := map[string]int{classCold: combos, classHot: 7 * combos / 2, classUpload: combos / 2}
		if !reflect.DeepEqual(ca, want) {
			t.Errorf("round %d: class mix %v, want %v (70/20/10)", r, ca, want)
		}
	}
	coldKeys := func(rs [][]request) map[request]bool {
		keys := map[request]bool{}
		for _, reqs := range rs {
			for _, q := range reqs {
				if q.Class == classCold {
					keys[q] = true
				}
			}
		}
		return keys
	}
	ka, kb := coldKeys(a), coldKeys(b)
	shared := 0
	for k := range ka {
		if kb[k] {
			shared++
		}
	}
	if shared > len(ka)/100 {
		t.Errorf("seeds 7 and 8 share %d of %d cold keys", shared, len(ka))
	}
}

func TestColdKeysAreNeverRepeated(t *testing.T) {
	seen := map[request]bool{}
	for _, reqs := range rounds(1, 20) {
		perCombo := map[int]int{}
		for _, q := range reqs {
			if q.Class != classCold {
				continue
			}
			if seen[q] {
				t.Fatalf("cold key %+v sent twice", q)
			}
			seen[q] = true
			perCombo[q.Index]++
			if q.Coverage == "0.9000" {
				t.Fatalf("cold key %+v reuses the set-up coverage", q)
			}
		}
		if len(perCombo) != len(coldCombos()) {
			t.Fatalf("a round covers %d of %d cold combos", len(perCombo), len(coldCombos()))
		}
	}
}
