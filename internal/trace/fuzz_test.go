package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestBinaryReaderSurvivesCorruption flips random bytes in valid trace
// streams and checks the reader either returns an error or a trace whose
// events all validate — it must never panic or return invalid events.
func TestBinaryReaderSurvivesCorruption(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 500; trial++ {
		corrupted := append([]byte(nil), clean...)
		flips := 1 + rng.Intn(4)
		for i := 0; i < flips; i++ {
			pos := rng.Intn(len(corrupted))
			corrupted[pos] ^= byte(1 + rng.Intn(255))
		}
		tr, err := ReadTrace(bytes.NewReader(corrupted))
		if err != nil {
			continue // rejected: fine
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: reader returned invalid trace: %v", trial, err)
		}
	}
}

// TestBinaryReaderSurvivesTruncationEverywhere truncates a valid stream at
// every byte offset: all prefixes must be rejected or parse to a valid
// trace (a prefix that happens to contain fewer declared events cannot
// occur because the count is in the header, so errors are expected).
func TestBinaryReaderSurvivesTruncationEverywhere(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for n := 0; n < len(clean); n++ {
		if _, err := ReadTrace(bytes.NewReader(clean[:n])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", n, len(clean))
		}
	}
	if _, err := ReadTrace(bytes.NewReader(clean)); err != nil {
		t.Fatalf("full stream rejected: %v", err)
	}
}

// TestTextReaderSurvivesRandomJunk feeds random printable junk to the text
// parser: it must error out, never panic.
func TestTextReaderSurvivesRandomJunk(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("abcdefgh0123456789 .-#\n=")
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		junk := make([]byte, n)
		for i := range junk {
			junk[i] = alphabet[rng.Intn(len(alphabet))]
		}
		tr, err := ReadText(bytes.NewReader(junk))
		if err == nil {
			// Only acceptable if it parsed into a valid trace (e.g. the
			// junk happened to start with a valid header).
			if vErr := tr.Validate(); vErr != nil {
				t.Fatalf("trial %d: junk parsed to invalid trace: %v", trial, vErr)
			}
		}
	}
}

// TestHeaderLengthFieldAbuse checks hostile header length fields don't
// cause huge allocations or panics.
func TestHeaderLengthFieldAbuse(t *testing.T) {
	// Magic + absurd app length with nothing after it.
	data := append([]byte(binaryMagic), 0xFF, 0xFF)
	if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated huge app name accepted")
	}
	// Valid-ish header declaring 2^63 events but carrying none.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{App: "x", Ranks: 2, WallTime: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The event-count field is the last 8 bytes of the header.
	for i := len(raw) - 8; i < len(raw); i++ {
		raw[i] = 0xFF
	}
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Fatal("huge declared event count with empty body accepted")
	}
}

// Regression: a 27-byte body whose header declares 2^24-1 events made
// ReadTrace preallocate 1 GiB (64-byte Event x 16 Mi) before reading a
// single record. The declared count must only cap, not size, the first
// allocation.
func TestReadTraceHostileCountBoundsAllocation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{App: "x", Ranks: 2, WallTime: 1}, 0)
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
	// The event-count field is the last 8 bytes of the header.
	binary.LittleEndian.PutUint64(raw[len(raw)-8:], 1<<24-1)

	type result struct {
		err   error
		alloc uint64
	}
	done := make(chan result, 1)
	go func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadTrace(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		done <- result{err, after.TotalAlloc - before.TotalAlloc}
	}()
	select {
	case <-ctx.Done():
		t.Fatal("ReadTrace did not return before the deadline")
	case r := <-done:
		if r.err == nil {
			t.Fatal("declared 2^24-1 events with an empty body accepted")
		}
		if r.alloc >= 16<<20 {
			t.Fatalf("ReadTrace allocated %d bytes for a 27-byte body (want < 16 MiB)", r.alloc)
		}
	}
}

// FuzzReadTrace drives both trace decoders, ReadTrace (binary) and
// ReadText, with arbitrary bytes. The contract under test: malformed
// input is an error, never a panic, and any accepted trace validates and
// survives a WriteTrace/ReadTrace round trip unchanged. The committed
// corpus holds a valid binary trace, a truncated one, a header declaring
// 2^24-1 events with none following, a header declaring 2^22 ranks, and
// a valid text trace.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, read := range map[string]func(io.Reader) (*Trace, error){"binary": ReadTrace, "text": ReadText} {
			tr, err := read(bytes.NewReader(data))
			if err != nil {
				continue
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s decoder accepted an invalid trace: %v", name, err)
			}
			var buf bytes.Buffer
			if err := WriteTrace(&buf, tr); err != nil {
				t.Fatalf("%s decoder accepted a trace WriteTrace rejects: %v", name, err)
			}
			back, err := ReadTrace(&buf)
			if err != nil {
				t.Fatalf("%s trace did not read back: %v", name, err)
			}
			if back.Meta.App != tr.Meta.App || back.Meta.Ranks != tr.Meta.Ranks ||
				math.Float64bits(back.Meta.WallTime) != math.Float64bits(tr.Meta.WallTime) ||
				len(back.Events) != len(tr.Events) {
				t.Fatalf("%s trace changed in the round trip: %+v -> %+v", name, tr.Meta, back.Meta)
			}
			for i := range tr.Events {
				if back.Events[i] != tr.Events[i] {
					t.Fatalf("%s trace event %d changed in the round trip: %+v -> %+v", name, i, tr.Events[i], back.Events[i])
				}
			}
		}
	})
}
