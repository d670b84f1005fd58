package runstore

import (
	"bytes"
	"testing"
)

// FuzzDecode holds the decoder to its contract: arbitrary bytes either
// decode into a Run that re-encodes byte-identically, or return an error —
// never a panic, never an out-of-bounds read.
func FuzzDecode(f *testing.F) {
	// Seed with valid blobs of several shapes plus near-miss mutants so the
	// fuzzer starts at the interesting boundaries instead of random noise.
	seeds := []*Run{
		sampleRun(),
		{Meta: Meta{Kind: "bench"}},
		{Meta: Meta{Kind: KindScenario}, Series: []Series{{Workload: "w", Op: "o",
			Samples: []Sample{{Offset: -1, Value: -1}, {Offset: 0, Value: 1 << 62}}}}},
	}
	for _, r := range seeds {
		raw, err := Encode(r)
		if err != nil {
			f.Fatalf("Encode seed: %v", err)
		}
		f.Add(raw)
		if len(raw) > headerSize {
			f.Add(raw[:len(raw)-trailerSize])
			f.Add(raw[:headerSize])
		}
	}
	f.Add([]byte("BDBR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		run, err := Decode(raw)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode, and re-encoding the decoded
		// form must be stable (canonical already, so byte-identical twice).
		once, err := Encode(run)
		if err != nil {
			t.Fatalf("decoded run fails to re-encode: %v", err)
		}
		again, err := Encode(run)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once, again) {
			t.Fatal("re-encoding a decoded run is not stable")
		}
		if _, err := Decode(once); err != nil {
			t.Fatalf("re-encoded blob fails to decode: %v", err)
		}
	})
}
