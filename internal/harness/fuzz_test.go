package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
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
// decoder, with encoding/json as its oracle. It must never panic. Where
// the one-pass reader accepts, json.Unmarshal must succeed with a
// deep-equal storedPrep. decodePreparation must give the verdict, value
// and error of json.Unmarshal followed by the same checks. A success must
// be a preparation Measure can replay — kernel and write commands only,
// every kernel command with a valid profile, every write without one, at
// least one kernel, profiles rebuilt by Prepare's first-launch rule — and
// encoding must be a fixed point of decoding. The seeds after the
// canonical literal each differ from one in a single way: a fallback
// trigger, a string that needs unquoting, or a record the checks refuse.
func FuzzDecodePreparation(f *testing.F) {
	var canonical []byte
	for _, p := range fuzzPreparations(f) {
		raw, err := encodePreparation(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(raw))
		f.Add([]byte(raw[:len(raw)/2]))
		if canonical == nil {
			canonical = raw // crc/tiny: one kernel, functional and verified
		}
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
	// The canonical form of a one-kernel preparation, and one change each.
	lit := `{"fp":256,"kl":1,"ops":64,"fn":true,"vf":true,"names":["k","in"],` + prof + `,"pnames":[0],"trace":[[1,1,256,-1],[0,0,0,0]]}`
	f.Add([]byte(lit))
	for _, r := range [][2]string{
		{`,"kl":`, `, "kl":`},                          // whitespace
		{`"fn":true,"vf":true`, `"vf":true,"fn":true`}, // a reordered key
		{`{"fp":`, `{"x":[1],"fp":`},                   // an unknown key
		{`"pnames":[0]`, `"pnames":null`},              // a null array
		{`"names":["k","in"]`, `"names":null`},         // a null array the checks refuse
		{`"kl":1`, `"kl":1.5`},                         // a fraction in an int field
		{`"kl":1`, `"kl":1e400`},                       // an int out of range
		{`"ops":64`, `"ops":1e400`},                    // a float out of range
		{`"names":["k"`, `"names":["\u006b"`},          // an escaped name
		{`"names":["k"`, "\"names\":[\"k\xff\""},       // a name that is not UTF-8
		{`[0,0,0,0]]`, `[0,0,0]]`},                     // a short trace entry
		{`[0,0,0,0]]`, `[0,0,0,0,0]]`},                 // a long trace entry
		{`"kl":1`, `"kl":2`},                           // a launch the trace lacks
		{`"fn":true`, `"fn":false`},                    // verified without executing
	} {
		f.Add([]byte(strings.Replace(lit, r[0], r[1], 1)))
	}
	f.Add(append([]byte(lit), ' '))
	f.Add(bytes.Replace(canonical, []byte(`"kl":1`), []byte(`"kl":2`), 1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		ref := &storedPrep{}
		refErr := json.Unmarshal(raw, ref)
		if sp, ok := readStoredPrep(raw); ok {
			if refErr != nil {
				t.Fatalf("one-pass reader accepted bytes encoding/json refuses: %v", refErr)
			}
			if !reflect.DeepEqual(sp, ref) {
				t.Fatalf("one-pass reader read %+v, encoding/json %+v", sp, ref)
			}
		}
		var want *Preparation
		wantErr := refErr
		if refErr == nil {
			want, wantErr = ref.preparation()
		}
		p, err := decodePreparation(raw)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodePreparation error %v; encoding/json and the checks: %v", err, wantErr)
		}
		if err != nil {
			if !strings.HasSuffix(err.Error(), wantErr.Error()) {
				t.Fatalf("decodePreparation error %q does not end with %q", err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("decodePreparation decoded %+v, encoding/json %+v", p, want)
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

// FuzzDecodeMeasurement feeds arbitrary bytes to the stored-cell decoder,
// with encoding/json as its oracle. It must never panic. Where the
// canonical reader accepts, json.Unmarshal must succeed with a deep-equal
// value. DecodeMeasurement must accept exactly what json.Unmarshal and the
// cell checks accept, decode the same value and refuse with encoding/json's
// error; a success must export its records, and encoding must be a fixed
// point of decoding. The seeds after the real cells each differ from one in
// a single way: a fallback trigger, a string that needs unquoting, or a
// cell the checks refuse.
func FuzzDecodeMeasurement(f *testing.F) {
	dev, err := opencl.LookupDevice("gtx1080")
	if err != nil {
		f.Fatal(err)
	}
	var canonical []byte
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
		canonical = raw
	}
	// withValue returns canonical with the value of its first "key" field
	// replaced by v.
	withValue := func(key, v string) []byte {
		i := bytes.Index(canonical, []byte(`"`+key+`":`))
		if i < 0 {
			f.Fatalf("no %s field in %s", key, canonical)
		}
		start := i + len(key) + 3
		dec := json.NewDecoder(bytes.NewReader(canonical[start:]))
		if err := dec.Decode(new(json.RawMessage)); err != nil {
			f.Fatal(err)
		}
		return slices.Concat(canonical[:start], []byte(v), canonical[start+int(dec.InputOffset()):])
	}
	for _, seed := range [][]byte{
		bytes.Replace(canonical, []byte(`,"Dwarf":`), []byte(`, "Dwarf":`), 1),
		[]byte(strings.NewReplacer(`"Iterations"`, `"KernelLaunches"`, `"KernelLaunches"`, `"Iterations"`).Replace(string(canonical))),
		bytes.Replace(canonical, []byte(`"Benchmark"`), []byte(`"benchmark"`), 1),
		bytes.Replace(canonical, []byte(`{"Benchmark":`), []byte(`{"Extra":1,"Benchmark":`), 1),
		withValue("Device", `null`),
		withValue("Profiles", `[null]`),
		withValue("KernelNs", `[]`),
		withValue("EnergyJ", `[1]`),
		withValue("Iterations", `1.5`),
		withValue("Iterations", `1e400`),
		withValue("Iterations", `01`),
		withValue("Iterations", `-`),
		withValue("Size", `"tin\u00e9"`),
		withValue("Size", "\"tin\xff\""),
		append(slices.Clip(canonical), ' '),
	} {
		f.Add(seed)
	}
	f.Add([]byte(`{"Device":null,"KernelNs":[1]}`))
	f.Add([]byte(`{"Device":{"ID":"d"},"KernelNs":[]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		ref := &Measurement{}
		refErr := json.Unmarshal(raw, ref)
		if c, ok := readMeasurement(raw); ok {
			if refErr != nil {
				t.Fatalf("canonical reader accepted bytes encoding/json refuses: %v", refErr)
			}
			if !reflect.DeepEqual(c, ref) {
				t.Fatalf("canonical reader decoded %+v, encoding/json %+v", c, ref)
			}
		}
		n := len(ref.KernelNs)
		valid := refErr == nil && ref.Device != nil && n > 0 &&
			len(ref.TransferNs) == n && len(ref.EnergyJ) == n && !slices.Contains(ref.Profiles, nil)
		m, err := DecodeMeasurement(raw)
		if (err == nil) != valid {
			t.Fatalf("DecodeMeasurement error %v; encoding/json error %v, checks pass %v", err, refErr, valid)
		}
		if err != nil {
			if refErr != nil && !strings.HasSuffix(err.Error(), refErr.Error()) {
				t.Fatalf("DecodeMeasurement error %q does not carry encoding/json's %q", err, refErr)
			}
			return
		}
		if !reflect.DeepEqual(m, ref) {
			t.Fatalf("DecodeMeasurement decoded %+v, encoding/json %+v", m, ref)
		}
		if recs := m.Records(); len(recs) != 2*n {
			t.Fatalf("%d records from %d samples", len(recs), n)
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
