// Package cli holds the plumbing the commands share: parsing a list flag
// and writing an export file.
package cli

import (
	"io"
	"os"
	"strings"
)

// Split parses a comma-separated flag value into its non-empty,
// space-trimmed elements; it returns nil when there are none.
func Split(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// WriteFile creates path, hands it to write and closes it, returning the
// first error of the three.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
