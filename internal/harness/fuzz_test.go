package harness

import (
	"bytes"
	"context"
	"testing"

	"opendwarfs/internal/opencl"
	"opendwarfs/internal/suite"
)

// fuzzRows are the real rows whose encodings seed the fuzz corpora: one
// single-kernel row, and two multi-command rows that share profiles.
var fuzzRows = [][2]string{{"crc", "tiny"}, {"nw", "small"}, {"lud", "small"}}

func fuzzPreparations(f *testing.F) []*Preparation {
	f.Helper()
	reg := suite.New()
	var preps []*Preparation
	for _, row := range fuzzRows {
		b, err := reg.Get(row[0])
		if err != nil {
			f.Fatal(err)
		}
		p, err := Prepare(context.Background(), b, row[1], quickOpts())
		if err != nil {
			f.Fatal(err)
		}
		preps = append(preps, p)
	}
	return preps
}

// FuzzDecodePreparation feeds arbitrary bytes to the stored-preparation
// decoder. It must never panic; a success must be a preparation Measure
// can replay — kernel and write commands only, every kernel command with a
// valid profile, every write without one, at least one kernel, profiles
// rebuilt by Prepare's first-launch rule — and encoding must be a fixed
// point of decoding.
func FuzzDecodePreparation(f *testing.F) {
	for _, p := range fuzzPreparations(f) {
		raw, err := encodePreparation(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(raw))
		f.Add([]byte(raw[:len(raw)/2]))
	}
	const prof = `"profiles":[{"w":64,"f":1,"i":0,"l":4,"s":4,"ws":256,"p":0,"r":0,"b":0,"d":0,"c":1,"v":true,"sf":0}]`
	f.Add([]byte(`{"fp":256,"kl":1,"ops":64,"names":["k"],` + prof + `,"pnames":[0],"trace":[[0,0,0,0]]}`))
	f.Add([]byte(`{"names":["k"],` + prof + `,"pnames":[0],"trace":[[0,0,0,1]]}`))         // profile index out of range
	f.Add([]byte(`{"names":["k"],` + prof + `,"pnames":[0],"trace":[[0,1,0,0]]}`))         // name index out of range
	f.Add([]byte(`{"names":["k"],` + prof + `,"pnames":[1],"trace":[[0,0,0,0]]}`))         // profile name out of range
	f.Add([]byte(`{"names":["k"],` + prof + `,"pnames":[],"trace":[[0,0,0,0]]}`))          // unnamed profile
	f.Add([]byte(`{"names":["k"],` + prof + `,"pnames":[0],"trace":[[9,0,0,0]]}`))         // unknown kind
	f.Add([]byte(`{"names":["k"],` + prof + `,"pnames":[0],"trace":[[1,0,64,0]]}`))        // transfer with a profile
	f.Add([]byte(`{"names":["k"],"profiles":[{"w":0}],"pnames":[0],"trace":[[0,0,0,0]]}`)) // profile without work items
	// A read (kind 2): no benchmark enqueues one, so the decoder refuses it.
	f.Add([]byte(`{"names":["k"],` + prof + `,"pnames":[0],"trace":[[0,0,0,0],[2,0,64,-1]]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := decodePreparation(raw)
		if err != nil {
			return
		}
		checkReplayable(t, p)
		enc, err := encodePreparation(p)
		if err != nil {
			t.Fatalf("decoded preparation does not encode: %v", err)
		}
		p2, err := decodePreparation(enc)
		if err != nil {
			t.Fatalf("re-encoded preparation does not decode: %v", err)
		}
		enc2, err := encodePreparation(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}

func checkReplayable(t *testing.T, p *Preparation) {
	t.Helper()
	seen := map[string]bool{}
	var firsts int
	for i, c := range p.trace {
		if c.kind != opencl.CommandKernel && c.kind != opencl.CommandWrite {
			t.Fatalf("command %d: kind %d is neither a kernel nor a write", i, c.kind)
		}
		if c.kind != opencl.CommandKernel {
			if c.profile != nil {
				t.Fatalf("%s command %d carries a profile", c.kind, i)
			}
			continue
		}
		if c.profile == nil {
			t.Fatalf("kernel command %d has no profile", i)
		}
		if err := c.profile.Validate(); err != nil {
			t.Fatalf("kernel command %d: %v", i, err)
		}
		if !seen[c.name] {
			seen[c.name] = true
			if firsts >= len(p.profiles) || p.profiles[firsts] != c.profile {
				t.Fatalf("profiles do not follow the first launch of each kernel name")
			}
			firsts++
		}
	}
	if firsts == 0 || firsts != len(p.profiles) {
		t.Fatalf("%d kernel names, %d profiles", firsts, len(p.profiles))
	}
}

// FuzzDecodeMeasurement feeds arbitrary bytes to the stored-cell decoder.
// It must never panic; a success must carry a device and samples, and
// encoding must be a fixed point of decoding.
func FuzzDecodeMeasurement(f *testing.F) {
	dev, err := opencl.LookupDevice("gtx1080")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range fuzzPreparations(f) {
		m, err := p.Measure(context.Background(), dev, quickOpts())
		if err != nil {
			f.Fatal(err)
		}
		raw, err := EncodeMeasurement(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(raw))
		f.Add([]byte(raw[:len(raw)/2]))
	}
	f.Add([]byte(`{"Device":null,"KernelNs":[1]}`))
	f.Add([]byte(`{"Device":{"ID":"d"},"KernelNs":[]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := DecodeMeasurement(raw)
		if err != nil {
			return
		}
		if m.Device == nil || len(m.KernelNs) == 0 {
			t.Fatal("decoded a measurement without a device or samples")
		}
		enc, err := EncodeMeasurement(m)
		if err != nil {
			t.Fatalf("decoded measurement does not encode: %v", err)
		}
		m2, err := DecodeMeasurement(enc)
		if err != nil {
			t.Fatalf("re-encoded measurement does not decode: %v", err)
		}
		enc2, err := EncodeMeasurement(m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}
