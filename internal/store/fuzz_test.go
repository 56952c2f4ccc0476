package store

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzOpen replays arbitrary bytes as a store's only segment. Open must
// never panic; a failure must name the file; a success must index only
// non-empty keys, replay identically on a second Open, and keep the same
// key set through Compact and a reopen.
func FuzzOpen(f *testing.F) {
	const good = `{"key":"k0","benchmark":"crc","size":"tiny","device":"dev0","schema":1,"value":0}` + "\n" +
		`{"key":"k1","benchmark":"crc","size":"tiny","device":"dev1","schema":1,"value":1}` + "\n"
	f.Add([]byte(good))
	f.Add([]byte(good + `{"key":"torn","val`))               // torn tail (TestTornTailLineIsDiscarded)
	f.Add([]byte(good[:len(good)-20]))                       // truncated mid-line (TestCrashTruncationRecovery)
	f.Add([]byte("not json\n{\"key\":\"k\",\"value\":1}\n")) // corrupt interior line (TestCorruptInteriorLineIsAnError)
	f.Add([]byte(good + "not json\n{\"key\":\n"))            // two corrupt lines
	f.Add([]byte("\n \n\t\n" + good + "not json\n"))         // blank lines before a corrupt line
	f.Add([]byte(good + good))                               // every key duplicated
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
