package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// summary is a timing distribution as the detail line reports it: the
// median, both quartiles, the 99th percentile and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	P99    float64 `json:"p99"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), P99: quantile(s, 0.99), N: len(s)}
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p)
}

// provenance identifies the machine and the code a result came from, so
// numbers from different machines or revisions are never compared blindly.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
	Dirty      string `json:"git_dirty"`
}

func machine() provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Dirty:      "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The build stamps VCS state when it runs inside a git work tree; a
	// plain source checkout leaves both fields unknown.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				p.Revision = kv.Value
			case "vcs.modified":
				p.Dirty = kv.Value
			}
		}
	}
	return p
}
