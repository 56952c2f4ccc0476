package store

import (
	"encoding/json"
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
