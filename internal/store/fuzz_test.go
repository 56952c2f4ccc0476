package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// openCorpus seeds FuzzOpen, and FuzzReadLine line by line.
var openCorpus = func() []string {
	const good = `{"key":"k0","benchmark":"crc","size":"tiny","device":"dev0","schema":1,"value":0}` + "\n" +
		`{"key":"k1","benchmark":"crc","size":"tiny","device":"dev1","schema":1,"value":1}` + "\n"
	return []string{
		good,
		good + `{"key":"torn","val`, // torn tail (TestTornTailLineIsDiscarded)
		good[:len(good)-20],         // truncated mid-line (TestCrashTruncationRecovery)
		"not json\n{\"key\":\"k\",\"value\":1}\n", // corrupt interior line (TestCorruptInteriorLineIsAnError)
		good + "not json\n{\"key\":\n",            // two corrupt lines
		"\n \n\t\n" + good + "not json\n",         // blank lines before a corrupt line
		good + good,                               // every key duplicated
	}
}()

// FuzzOpen replays arbitrary bytes as a store's only segment. Open must
// never panic; a failure must name the file; a success must index only
// non-empty keys, replay identically on a second Open, and keep the same
// key set through Compact and a reopen.
func FuzzOpen(f *testing.F) {
	for _, seed := range openCorpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		const name = "seg-000001.jsonl"
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("Open error does not name the file: %v", err)
			}
			return
		}
		want := pairs(s)
		for _, p := range want {
			if p[0] == "" {
				t.Fatalf("record with empty key indexed: %v", want)
			}
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open failed: %v", err)
		}
		if got := pairs(again); !reflect.DeepEqual(got, want) {
			t.Fatalf("second Open lists %v, first %v", got, want)
		}
		again.Close()

		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		s.Close()
		compacted, err := Open(dir)
		if err != nil {
			t.Fatalf("Open after Compact: %v", err)
		}
		defer compacted.Close()
		if compacted.Len() != len(want) {
			t.Fatalf("Len %d after Compact, want %d", compacted.Len(), len(want))
		}
		if got, want := keys(pairs(compacted)), keys(want); !slices.Equal(got, want) {
			t.Fatalf("keys after Compact %v, want %v", got, want)
		}
	})
}

// pairs lists a store's (key, value) pairs in Records order.
func pairs(s *Store) [][2]string {
	var out [][2]string
	for _, r := range s.Records() {
		out = append(out, [2]string{r.Key, string(r.Value)})
	}
	return out
}

// keys returns the sorted keys of a pair listing.
func keys(ps [][2]string) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p[0]
	}
	slices.Sort(out)
	return out
}

// FuzzReadLine checks Open's one-pass line reader against encoding/json:
// a line readLine accepts must unmarshal into the same Record, and a line
// it refuses must leave the record alone for encoding/json to fill.
func FuzzReadLine(f *testing.F) {
	for _, seed := range openCorpus {
		for _, line := range strings.SplitAfter(seed, "\n") {
			f.Add([]byte(line))
		}
	}
	for _, line := range []string{
		`{"key":"p","benchmark":"crc","size":"tiny","value":{"fp":2008,"trace":[[0,0,0,0]]}}`, // a preparation
		`{"key":"c","device":"d","value":{"Dwarf":"Backtrack \u0026 Branch","KernelNs":[1.5,2e-7]}}`,
		`{"key":"k", "value":1}`,                              // whitespace between tokens
		`{"key":"k","value": 1}`,                              // whitespace before the payload
		`{"key":"k","value":1 }`,                              // whitespace after it
		`{"key":"k","size":"s","benchmark":"b","value":1}`,    // two keys swapped
		`{"Key":"k","value":1}`,                               // a key in another case
		`{"key":"k","extra":1,"value":1}`,                     // an unknown key
		`{"key":"k\u00e9","value":1}`,                         // an escape
		"{\"key\":\"k\xff\",\"value\":1}",                     // a raw invalid UTF-8 byte
		`{"key":"","value":1}`,                                // an empty key
		`{"key":"k","device":"","value":1}`,                   // an empty device
		`{"key":"k","schema":0,"value":1}`,                    // a zero schema
		`{"key":"k","schema":-1,"value":1}`,                   // a negative schema
		`{"key":"k","schema":01,"value":1}`,                   // a leading zero
		`{"key":"k","schema":1.0,"value":1}`,                  // a fraction
		`{"key":"k","schema":99999999999999999999,"value":1}`, // overflow
		`{"key":"k","value":null}`,                            // a null payload
		`{"key":"k","value":1}}`,                              // a stray brace
		`{"key":"k","value":1,"value":2}`,                     // a second value
		`{"key":"k","value":{"a":1},"key":"j"}`,               // a key after the payload
		`{"key":"k"}`,                                         // no payload
	} {
		f.Add([]byte(line + "\n"))
	}
	f.Add([]byte(`{"key":"k","value":1}` + "\r\n"))
	f.Add([]byte(`{"key":"k","value":1}`)) // no newline
	f.Fuzz(func(t *testing.T, line []byte) {
		var got Record
		if !readLine(line, &got) {
			if !reflect.DeepEqual(got, Record{}) {
				t.Fatalf("readLine refused %q but wrote %+v", line, got)
			}
			return
		}
		var want Record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("readLine accepted %q, which encoding/json refuses: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("readLine read %q as %+v, encoding/json as %+v", line, got, want)
		}
	})
}

// FuzzScanValue checks scanValue against encoding/json: valid must equal
// json.Valid, and for a valid input, verbatim must say whether json.Marshal
// copies it unchanged as a json.RawMessage.
func FuzzScanValue(f *testing.F) {
	for _, seed := range []string{
		`true`, `false`, `null`, `0`, `-1.5e+10`, `"s"`, `[]`, `{}`, `{"a":[1,{"b":null}]}`,
		`-0`, `01`, `1.`, `.5`, `1e`, `-`, `tru`, `nul`, `truex`,
		`[1,]`, `{"a":1,}`, `[1true]`, `{"a"}`, `{1:2}`, `[`, `]`, `{"a":1]`, ``, ` `,
		`"\"\\\/\b\f\n\r\t\u00e9\uD83D"`, `"\x"`, `"\u12g4"`, `"\u12"`, `"\`,
		"\"a\x01b\"", "\"\xff\"", "\"\x7f\"",
		`"<"`, `">"`, `"&"`, `{"<":1}`,
		"\"\u2028\"", "\"\u2029\"", "\"\xe2\x80\"", "\"\xe2\x80\xaa\"",
		` 1`, `1 `, "\t\n\r[]", `[1, 2]`, `{"a" : 1}`, `{ }`, `[ ]`, `" a "`,
		strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth),
		strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
		strings.Repeat(`{"a":`, maxDepth) + "1" + strings.Repeat("}", maxDepth),
		strings.Repeat(`[{"a":`, 100) + "1" + strings.Repeat("}]", 100), // objects and arrays alternating past 64 levels
		strings.Repeat(`[{"a":`, 100) + "1" + strings.Repeat("]}", 100), // each closed by the wrong bracket
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		valid, verbatim := scanValue(b)
		if want := json.Valid(b); valid != want {
			t.Fatalf("scanValue(%q) valid %v, json.Valid %v", b, valid, want)
		}
		if !valid {
			if verbatim {
				t.Fatalf("scanValue(%q) is invalid but verbatim", b)
			}
			return
		}
		out, err := json.Marshal(json.RawMessage(b))
		if err != nil {
			t.Fatalf("json.Marshal refused valid %q: %v", b, err)
		}
		if want := bytes.Equal(out, b); verbatim != want {
			t.Fatalf("scanValue(%q) verbatim %v, but json.Marshal writes %q", b, verbatim, out)
		}
	})
}

// putSeeds seeds FuzzPutLine, and TestPutLineFiles record by record: a
// cell and a preparation appendLine frames, then a record for each way to
// need json.Marshal (payload whitespace, '<' or U+2028; a header string
// with a quote, a backslash, non-ASCII, a control byte or invalid UTF-8),
// an empty payload, an invalid one and an empty key.
var putSeeds = []struct {
	key, bench, size, dev string
	schema                int
	value                 string
}{
	{"cell", "nqueens", "tiny", "gtx1080", 1, `{"Dwarf":"Backtrack \u0026 Branch","KernelNs":[1.5,2e-7]}`},
	{"prep", "crc", "tiny", "", 0, `{"fp":2008,"trace":[[0,0,0,0]]}`},
	{"k", "", "", "", -7, `"v"`},
	{"spaced", "crc", "tiny", "dev", 1, `{"a": [1, 2]}`},
	{"html", "crc", "tiny", "dev", 1, `"a<b"`},
	{"separator", "crc", "tiny", "dev", 1, "\"a\u2028b\""},
	{"quote", "crc", "tiny", `dev"1`, 1, `1`},
	{"backslash", "crc", "tiny", `dev\1`, 1, `1`},
	{"accent", "crc", "tiny", "devé", 1, `1`},
	{"control", "crc\n", "tiny", "dev", 1, `1`},
	{"invalid utf-8", "crc", "tiny\xff", "dev", 1, `1`},
	{"empty", "crc", "tiny", "dev", 1, ``},
	{"bad", "crc", "tiny", "dev", 1, `[1,]`},
	{"", "crc", "tiny", "dev", 1, `1`},
}

// FuzzPutLine checks the line Put and Compact write, appendLine's, against
// encoding/json: it must be json.Marshal's form of the record plus a
// newline, which readLine takes; where json.Marshal fails, appendLine must
// fail with its error and append nothing. An empty value is also framed as
// a nil one.
func FuzzPutLine(f *testing.F) {
	for _, seed := range putSeeds {
		f.Add(seed.key, seed.bench, seed.size, seed.dev, seed.schema, []byte(seed.value))
	}
	f.Fuzz(func(t *testing.T, key, bench, size, dev string, schema int, value []byte) {
		rec := Record{Key: key, Benchmark: bench, Size: size, Device: dev, Schema: schema, Value: value}
		checkLine(t, rec)
		if len(value) == 0 {
			rec.Value = nil
			checkLine(t, rec)
		}
	})
}

func checkLine(t *testing.T, rec Record) {
	t.Helper()
	const before = "line before\n"
	got, err := appendLine([]byte(before), &rec)
	want, merr := json.Marshal(&rec)
	if merr != nil {
		if err == nil || err.Error() != merr.Error() || string(got) != before {
			t.Fatalf("appendLine(%+v) appended %q with error %v, json.Marshal's %v", rec, got[len(before):], err, merr)
		}
		return
	}
	want = append(want, '\n')
	if err != nil || string(got[:len(before)]) != before || !bytes.Equal(got[len(before):], want) {
		t.Fatalf("appendLine(%+v) appended %q with error %v, json.Marshal writes %q", rec, got[len(before):], err, want)
	}
	if !readLine(want, new(Record)) {
		t.Fatalf("readLine refused %q", want)
	}
}

// TestPutLineFiles puts each of FuzzPutLine's seeds into a fresh store: the
// segment, then the snapshot Compact writes, must each hold json.Marshal's
// line, and where json.Marshal fails, Put must fail with its message and
// create no file. An empty key is refused.
func TestPutLineFiles(t *testing.T) {
	for _, seed := range putSeeds {
		rec := Record{Key: seed.key, Benchmark: seed.bench, Size: seed.size, Device: seed.dev,
			Schema: seed.schema, Value: []byte(seed.value)}
		checkPutFiles(t, rec)
		if len(rec.Value) == 0 {
			rec.Value = nil
			checkPutFiles(t, rec)
		}
	}
}

func checkPutFiles(t *testing.T, rec Record) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, merr := json.Marshal(&rec)
	perr := s.Put(rec)
	switch {
	case rec.Key == "":
		if perr == nil {
			t.Fatal("Put accepted an empty key")
		}
		return
	case merr != nil:
		if perr == nil || perr.Error() != fmt.Sprint("store: ", merr) {
			t.Fatalf("Put(%+v) error %v, json.Marshal's %v", rec, perr, merr)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Fatalf("Put(%+v) failed but wrote %v", rec, ents)
		}
		return
	case perr != nil:
		t.Fatalf("Put(%+v): %v, but json.Marshal writes %q", rec, perr, want)
	}
	want = append(want, '\n')
	for _, name := range []string{filepath.Base(s.segPath), snapshotName} {
		if name == snapshotName {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s holds %q for %+v, json.Marshal writes %q", name, got, rec, want)
		}
		if !readLine(got, new(Record)) {
			t.Fatalf("readLine refused %s line %q", name, got)
		}
	}
}
